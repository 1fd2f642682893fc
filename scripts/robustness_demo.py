#!/usr/bin/env python3
"""Walk a tiny knowledge base through the robustness-threshold search.

Scenario: a conclusion rests on some trusted formulas (delta) plus a pile of
dubious ones (nabla).  The threshold e* is the largest number of dubious
formulas that can be removed arbitrarily without losing the conclusion; a
high e*/card(nabla) means the conclusion barely relies on the dubious part.
"""

from stablecons import estar, parse_bool


def show(title, delta, nabla, omega):
    e_star = estar(
        [parse_bool(t) for t in delta],
        [parse_bool(t) for t in nabla],
        parse_bool(omega),
    )
    print(f"{title}")
    print(f"  trusted:  {delta or '(none)'}")
    print(f"  dubious:  {nabla}")
    print(f"  conclusion: {omega}")
    if e_star is None:
        print("  -> the conclusion does not follow even with nothing removed")
    else:
        fraction = e_star / len(set(nabla))
        print(
            f"  -> e* = {e_star} of {len(set(nabla))} dubious formulas"
            f" are expendable (ratio {fraction:.2f})"
        )
    print()


def main() -> int:
    # X1: sensor A fired, X2: alarm must sound, X3: sensor B fired

    # the dubious set is massively redundant: any single survivor still
    # forces the alarm
    show(
        "redundant evidence",
        delta=["X1 \\/ X2"],
        nabla=["~X1 \\/ X2", "X2 \\/ ~X1", "~X1 \\/ (X2 /\\ X2)"],
        omega="X2",
    )

    # both dubious formulas are load-bearing: dropping either one breaks
    # the derivation
    show(
        "fragile evidence",
        delta=[],
        nabla=["X1", "X3"],
        omega="X1 /\\ X3",
    )

    # the conclusion never followed in the first place
    show(
        "non-consequence",
        delta=["X1"],
        nabla=["X3"],
        omega="X2",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
