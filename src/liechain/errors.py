"""Exception types shared across the package, and the base of its
immutable value classes."""


class Frozen:
    """Base of the immutable value classes: each sets its slots once, when
    built, through ``object.__setattr__`` or the slot's own descriptor.
    Assigning or deleting one afterwards raises AttributeError.  Instances
    pickle and copy by their slots, in order, as the arguments of ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class LieChainError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTypeError(LieChainError, ValueError):
    """A family/degree pair outside the constructible range (e.g. odd Sp degree)."""


class ParseError(LieChainError, ValueError):
    """Syntax error in a group-spec string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TrivialGroupError(LieChainError, ValueError):
    """An operation that requires a nontrivial group was given the trivial one."""


class IncompleteDatabaseError(LieChainError, RuntimeError):
    """The brute-force recursion reached a group whose maximal-subgroup list
    is not certified complete; carries the offending group."""

    def __init__(self, group):
        super().__init__(f"maximal-subgroup list not certified complete for {group}")
        self.group = group
