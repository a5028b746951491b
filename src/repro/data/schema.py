"""Schemas: ordered, named, typed field lists attached to plan operators.

Schema objects are immutable. Join/cogroup outputs disambiguate clashing
field names Pig-style with an ``alias::field`` prefix.
"""

from repro.common.errors import DataError
from repro.data.types import DataType


class Field:
    """A single named, typed column. ``element`` is the row schema of a BAG."""

    __slots__ = ("name", "dtype", "element")

    def __init__(self, name, dtype, element=None):
        if not name:
            raise DataError("field name must be non-empty")
        if dtype is DataType.BAG and element is not None and not isinstance(element, Schema):
            raise DataError("bag element schema must be a Schema")
        self.name = name
        self.dtype = dtype
        self.element = element

    @property
    def short_name(self):
        """Field name without any ``alias::`` disambiguation prefix."""
        return self.name.rsplit("::", 1)[-1]

    def renamed(self, name):
        return Field(name, self.dtype, self.element)

    def canonical(self):
        """Stable text form used in operator signatures."""
        if self.dtype is DataType.BAG and self.element is not None:
            return f"{self.name}:bag{{{self.element.canonical()}}}"
        return f"{self.name}:{self.dtype.value}"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.name == other.name
            and self.dtype == other.dtype
            and self.element == other.element
        )

    def __hash__(self):
        return hash((self.name, self.dtype, self.element))

    def __repr__(self):
        return f"Field({self.canonical()})"


class Schema:
    """An immutable, ordered collection of :class:`Field` objects."""

    #: ``_codec`` holds the row codec :mod:`repro.data.codec` compiles (or
    #: finds) for this schema on first use. It is derived from the fields'
    #: types alone, so it takes no part in equality, hashing or the
    #: canonical text, and a copy or a pickle leaves it behind (it is made
    #: of closures).
    __slots__ = ("fields", "_index", "_codec")

    def __init__(self, fields):
        fields = tuple(fields)
        names = [field.name for field in fields]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise DataError(f"duplicate field names in schema: {duplicates}")
        self.fields = fields
        self._index = {field.name: pos for pos, field in enumerate(fields)}
        # Unambiguous short names resolve too (Pig lets you say `name`
        # instead of `users::name` when only one field matches).
        short_counts = {}
        for field in fields:
            short_counts[field.short_name] = short_counts.get(field.short_name, 0) + 1
        for pos, field in enumerate(fields):
            short = field.short_name
            if short not in self._index and short_counts[short] == 1:
                self._index[short] = pos
        self._codec = None

    def __reduce__(self):
        return (Schema, (self.fields,))

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other):
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self):
        return hash(self.fields)

    def __repr__(self):
        return f"Schema({self.canonical()})"

    def canonical(self):
        """Stable text form used in operator signatures."""
        return ", ".join(field.canonical() for field in self.fields)

    @property
    def names(self):
        return tuple(field.name for field in self.fields)

    def field_at(self, position):
        try:
            return self.fields[position]
        except IndexError as exc:
            raise DataError(
                f"position ${position} out of range for schema with {len(self.fields)} fields"
            ) from exc

    def position_of(self, name):
        """Resolve a (possibly short) field name to a position."""
        if name in self._index:
            return self._index[name]
        matches = [pos for pos, field in enumerate(self.fields) if field.short_name == name]
        if len(matches) > 1:
            raise DataError(f"ambiguous field name {name!r}; qualify it with an alias")
        raise DataError(f"unknown field {name!r}; schema has {list(self.names)}")

    def field(self, name):
        return self.fields[self.position_of(name)]

    def project(self, positions):
        """Schema of a positional projection."""
        return Schema(self.field_at(pos) for pos in positions)

    def prefixed(self, alias):
        """Schema with every field renamed to ``alias::short_name``."""
        return Schema(field.renamed(f"{alias}::{field.short_name}") for field in self.fields)

    @staticmethod
    def join(left, right, left_alias, right_alias):
        """Schema of a join output: left fields then right fields.

        Names clash across join inputs in general, so both sides are
        disambiguated with their alias, matching Pig's ``alias::field``.
        """
        return Schema(
            tuple(left.prefixed(left_alias).fields) + tuple(right.prefixed(right_alias).fields)
        )
