"""The width rule's ladder (ROADMAP item 4): at d digits an asymptotic value
must print as the same call at 2d digits, rounded to d, however large n.

Same arguments means the same text xi, or the same mu object.
"""
from touchard import TouchardError, mk_context, wrap_real

DIGITS = (40, 120, 300)
N = (100, 10 ** 3, 7000, 10 ** 6, 10 ** 9)
XI = ("0.5", "0.9", "0.97", "1.0001", "1.03", "1.5", "3")


def _printed(call, digits: int, rounded_to: int) -> str:
    """call(ctx) at digits, printed at rounded_to digits, or the name of
    the TouchardError it raises."""
    try:
        value = call(mk_context(digits))
    except TouchardError as exc:
        return type(exc).__name__
    return wrap_real(value.value, mk_context(rounded_to)).to_str()


def off_the_reference(call, digits: int) -> tuple[str, str] | None:
    """None when call at digits prints as call at 2 digits rounded to
    digits; else the two strings."""
    got = _printed(call, digits, digits)
    want = _printed(call, 2 * digits, digits)
    return None if got == want else (got, want)
