"""Truth vectors, truth functions, and their order-theoretic properties.

Vectors of bits are ordered componentwise; a truth function is stored as its
full output table indexed by the input vector read as a binary number
(leftmost component most significant, so index 0 is the all-zeros input).
"""

from __future__ import annotations

from typing import Iterator, Optional

ENUMERATION_ARITY_CAP = 4


class Frozen:
    """Base of the package's value classes, whose fields are the names in
    the `__slots__` of their classes. An instance takes no attribute
    assignment: its `__init__` sets each field once, by `object.__setattr__`.
    It equals only instances of its own class with equal fields, hashes as
    the tuple of its fields (so a dict field makes it unhashable), and its
    repr is `Class(name=value, ...)`."""

    __slots__ = ()

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        classes = reversed(type(self).__mro__)
        return {n: getattr(self, n) for c in classes for n in c.__dict__.get("__slots__", ())}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._asdict() == other._asdict()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({shown})"


class TruthVector(Frozen):
    """A fixed-length sequence of bits."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"truth vector entries must be 0 or 1: {bits!r}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def of(cls, *bits: int) -> "TruthVector":
        return cls(tuple(bits))

    @classmethod
    def from_index(cls, index: int, length: int) -> "TruthVector":
        if not 0 <= index < (1 << length):
            raise ValueError(f"index {index} out of range for length {length}")
        return cls(tuple((index >> (length - 1 - i)) & 1 for i in range(length)))

    @classmethod
    def zeros(cls, length: int) -> "TruthVector":
        return cls((0,) * length)

    @classmethod
    def ones(cls, length: int) -> "TruthVector":
        return cls((1,) * length)

    @property
    def index(self) -> int:
        """The vector read as a binary number, leftmost bit most significant."""
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _require_equal_length(a: TruthVector, b: TruthVector) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def tv_meet(a: TruthVector, b: TruthVector) -> TruthVector:
    """Componentwise minimum (the infimum in the componentwise order)."""
    _require_equal_length(a, b)
    return TruthVector(tuple(min(x, y) for x, y in zip(a.bits, b.bits)))


def tv_join(a: TruthVector, b: TruthVector) -> TruthVector:
    """Componentwise maximum."""
    _require_equal_length(a, b)
    return TruthVector(tuple(max(x, y) for x, y in zip(a.bits, b.bits)))


class TruthFunction(Frozen):
    """An n-ary function from bit vectors to bits, stored as its table.

    table[i] is the output on the input whose binary encoding is i; arity 0
    (a constant) is permitted and has a one-entry table.
    """

    __slots__ = ("arity", "table")

    def __init__(self, arity: int, table: tuple[int, ...]):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        if len(table) != 1 << arity:
            raise ValueError(f"table length {len(table)} does not match arity {arity}")
        if any(b not in (0, 1) for b in table):
            raise ValueError("table entries must be 0 or 1")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "table", table)

    def __call__(self, a: TruthVector) -> int:
        if len(a) != self.arity:
            raise ValueError(f"arity mismatch: function is {self.arity}-ary, got {len(a)}")
        return self.table[a.index]

    def table_string(self) -> str:
        return "".join(str(b) for b in self.table)

    @classmethod
    def from_json(cls, text: str) -> "TruthFunction":
        import json  # here, so that importing the CLI does not load it

        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("connective JSON nests too deeply") from None
        if not isinstance(data, dict) or set(data) != {"arity", "table"}:
            raise ValueError("expected an object with keys 'arity' and 'table'")
        arity, table = data["arity"], data["table"]
        if not isinstance(arity, int) or not isinstance(table, str):
            raise ValueError("'arity' must be an integer and 'table' a bit string")
        return cls(arity, table_bits(arity, table))


def table_bits(arity: int, table: str) -> tuple[int, ...]:
    """The table of an `arity`-ary function from its bit string, or ValueError."""
    # bool is an int subclass, but `true` is not an arity
    if isinstance(arity, bool) or arity < 0:
        raise ValueError(f"arity must be a nonnegative integer, got {arity!r}")
    # the bit-length test comes first, so a huge arity never reaches the shift
    if (
        any(c not in "01" for c in table)
        or len(table).bit_length() != arity + 1
        or len(table) != 1 << arity
    ):
        raise ValueError(f"table must be a bit string of length 2^{arity}")
    return tuple(int(c) for c in table)


def is_supermultiplicative(
    f: TruthFunction,
) -> tuple[bool, Optional[tuple[TruthVector, TruthVector]]]:
    """Whether two 1-valued inputs always have a 1-valued meet.

    When not, returns the lexicographically least violating pair (vectors
    compared as tuples, pairs by first component).
    """
    ones = [i for i, bit in enumerate(f.table) if bit]
    for ia in ones:
        for ib in ones:
            if not f.table[ia & ib]:
                return False, (
                    TruthVector.from_index(ia, f.arity),
                    TruthVector.from_index(ib, f.arity),
                )
    return True, None


def is_monotonic(f: TruthFunction) -> bool:
    """Whether the function preserves the componentwise order."""
    size = 1 << f.arity
    for i in range(size):
        for j in range(size):
            # i & j == i means the i-vector is componentwise below the j-vector
            if i & j == i and f.table[i] > f.table[j]:
                return False
    return True


def enumerate_truth_functions(arity: int) -> Iterator[TruthFunction]:
    """All truth functions of the given arity, in table order."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    if arity > ENUMERATION_ARITY_CAP:
        raise ValueError(f"arity {arity} exceeds enumeration cap {ENUMERATION_ARITY_CAP}")
    size = 1 << arity
    for k in range(1 << size):
        table = tuple((k >> (size - 1 - i)) & 1 for i in range(size))
        yield TruthFunction(arity, table)


BUILTINS: dict[str, TruthFunction] = {
    "not": TruthFunction(1, (1, 0)),
    "and": TruthFunction(2, (0, 0, 0, 1)),
    "or": TruthFunction(2, (0, 1, 1, 1)),
    "imp": TruthFunction(2, (1, 1, 0, 1)),
    "xor": TruthFunction(2, (0, 1, 1, 0)),
    "iff": TruthFunction(2, (1, 0, 0, 1)),
}


def builtin(name: str) -> TruthFunction:
    """The standard table for one of: not, and, or, imp, xor, iff."""
    try:
        return BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin connective {name!r}; known: {', '.join(BUILTINS)}"
        ) from None
