"""Exact ground fields: arbitrary-precision rationals and prime fields.

How scalars are represented.  Over the rationals a scalar is a plain
``int`` when it is integral and a ``fractions.Fraction`` only when it is
not; over a prime field it is a plain ``int`` in ``0..p-1``.  No floating
point is used anywhere.

Why the mixed rational representation is sound.  Python's ``int`` and
``Fraction`` mix exactly: ``+``, ``-`` and ``*`` of two ints is an int,
and of an int and a ``Fraction`` is a ``Fraction`` (possibly with
denominator 1), so every sum and product is the exact rational value.
An int and a ``Fraction`` of the same value compare equal and hash
equal, so zero tests, equality checks, dict keys and sets see values, not
types.  The one operation that could leave the rationals, ``int / int``
(a float), appears nowhere: no scalar is divided at all.
``RationalField.inv`` returns 1 and -1 as themselves, an int a as
``Fraction(1, a)`` and a ``Fraction`` n/d as ``Fraction(d, n)`` (an int
when n is 1 or -1), each built from two ints, which ``Fraction`` keeps
exact.  Integral structure constants, most of them 1 and -1, so stay
ints, whose arithmetic is far cheaper than a ``Fraction``'s.  A
``Fraction`` result with denominator 1 is not turned back into an int:
that per-entry check saved nothing measurable on the benchmark ladder.

Values enter the fields in three ways: ``of_int`` for small integers,
``parse`` for a scalar's JSON form, and ``coerce`` for a library value,
which ``Presentation`` applies to every parameter and border value.
``coerce`` takes an int (not a bool) or, over Q, a ``Fraction``, and
raises ValueError for anything else, so no float ever becomes a scalar.

Each field also owns the package's one sparse-row kernel, ``axpy``, with
its arithmetic written inline: it is the inner loop of element products
and of elimination, where a call of ``add``/``mul`` per entry would cost
more than the arithmetic itself.
"""

from fractions import Fraction


def _rational(x):
    """The Fraction x as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


class RationalField:
    """The field of rational numbers: an ``int`` when integral, else a
    ``Fraction`` (see the module docstring)."""

    char = 0
    name = "Q"

    def __init__(self):
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def axpy(self, dst, pairs, s):
        """In place ``dst += s * src``, src given as (key, scalar) pairs.

        Entries that cancel are removed and no zero is stored.  A new entry
        is ``s * v`` itself, with no addition to a zero.  Returns dst.
        """
        get = dst.get
        for c, v in pairs:
            w = s * v
            old = get(c)
            if old is not None:
                w += old
            if w:
                dst[c] = w
            else:
                dst.pop(c, None)
        return dst

    def inv(self, a):
        if type(a) is int:
            if a == 1 or a == -1:
                return a
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1, a)
        num = a.numerator
        if num == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(Fraction(a.denominator, num))

    def of_int(self, n):
        return n

    def coerce(self, value):
        """A library value as a scalar: an int (not a bool) or a Fraction.

        Raises:
            ValueError: for any other value, a float among them.
        """
        if isinstance(value, Fraction):
            return _rational(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"rational scalar must be an int or a Fraction, got {value!r}")
        return int(value)

    def parse(self, value):
        """Parse a scalar from its JSON form: a string ``"n"`` or ``"n/d"``."""
        if isinstance(value, bool) or not isinstance(value, str):
            raise ValueError(
                f"rational scalar must be a string 'n' or 'n/d', got {value!r}"
            )
        parts = value.split("/")
        if len(parts) == 1:
            num, den = parts[0], "1"
        elif len(parts) == 2:
            num, den = parts
        else:
            raise ValueError(f"malformed rational scalar {value!r}")
        try:
            n = int(num.strip())
            d = int(den.strip())
        except ValueError:
            raise ValueError(f"malformed rational scalar {value!r}") from None
        if d == 0:
            raise ValueError(f"zero denominator in scalar {value!r}")
        return _rational(Fraction(n, d))

    def fmt(self, a):
        """Format a scalar back to its JSON string form."""
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def to_json(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


# The first twelve primes: Miller-Rabin bases that decide n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# PrimeField accepts primes below this bound only.
PRIME_LIMIT = 2 ** 64


class FieldSizeError(ValueError):
    """A prime field order at or above :data:`PRIME_LIMIT`."""


def _is_prime(n):
    """Deterministic Miller-Rabin primality test, exact for n < 3.3e24.

    No composite below 3 317 044 064 679 887 385 961 981 is a strong
    pseudoprime to all the bases 2..37, so the answer is exact there;
    PrimeField only asks about n < 2**64.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p, elements represented as ints in ``0..p-1``.

    Raises:
        FieldSizeError: for p >= 2**64 (a ValueError).
        ValueError: when p is not a prime integer.
    """

    def __init__(self, p):
        # set first, so that the repr of a refused field does not raise
        self.p = p
        if isinstance(p, int) and p >= PRIME_LIMIT:
            raise FieldSizeError(
                f"field order must be below 2**64, got {p!r}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"field order must be a prime integer, got {p!r}")
        self.char = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def axpy(self, dst, pairs, s):
        """In place ``dst += s * src``, src given as (key, scalar) pairs.

        Entries that cancel are removed and no zero is stored; each new
        value is reduced mod p once.  Returns dst.
        """
        p = self.p
        get = dst.get
        for c, v in pairs:
            w = (get(c, 0) + s * v) % p
            if w:
                dst[c] = w
            else:
                dst.pop(c, None)
        return dst

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def of_int(self, n):
        return n % self.p

    def coerce(self, value):
        """A library value as a scalar: an int (not a bool), reduced mod p.

        Raises:
            ValueError: for any other value, a Fraction or a float among them.
        """
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"F{self.p} scalar must be an integer, got {value!r}")
        return int(value) % self.p

    # The JSON form of an F_p scalar is the integer itself.
    parse = coerce

    def fmt(self, a):
        return a % self.p

    def to_json(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


def field_from_json(value):
    """Build a field object from its JSON description ``"Q"`` or ``{"Fp": p}``.

    Raises:
        ValueError: for any other description, or a ``p`` that
            ``PrimeField`` refuses (a ``FieldSizeError`` among them), so
            one ``except ValueError`` covers every bad description.
    """
    if value == "Q":
        return RationalField()
    if isinstance(value, dict) and set(value) == {"Fp"}:
        return PrimeField(value["Fp"])
    raise ValueError(f"unknown field description {value!r}")
