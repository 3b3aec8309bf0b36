"""Revocation-list state: individual member revocation, group revocation by
constraint set, and coalescing of fully revoked sibling families.

Lists are immutable snapshots; every mutation returns a fresh list with a
strictly larger version counter. Members and groups are kept in canonical
order so equal contents always serialize (and hash) identically. The
constructor sorts and checks whatever it is given; a mutation inserts its
one new entry into the already canonical list at its sorted position.

The canonical order is the list's only index: lookups bisect it. What a
list determines (its hash, the collapsed hyperplanes `sigma` derives from
it) is computed once per list object and kept in the instance `__dict__`
by `functools.cached_property`, which leaves equality, repr and
serialization to the fields alone.
"""

import bisect
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from .curve_fp import ModPoint
from .errors import InvariantError
from .hierarchy import DeptNode, Hyperplane, PublicKey, walk


@dataclass(frozen=True)
class RevokedMember:
    point: ModPoint
    member_id: str


@dataclass(frozen=True)
class ConstraintSet:
    """A revoked department: its path and the full stack of hyperplanes
    (own plus ancestors'), so verifiers need no tree access."""

    path: str
    constraints: Tuple[Hyperplane, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise InvariantError("empty constraint set")
        if not all(isinstance(hp, Hyperplane) for hp in self.constraints):
            raise InvariantError("constraint set holds a non-Hyperplane")


def _point_key(entry):
    """The point part of `_member_key`, of a RevokedMember or a PublicKey:
    infinity sorts first, apart from the finite point (0, 0)."""
    point = entry.point
    return (not point.is_infinity, point.x or 0, point.y or 0)


def _member_key(m: RevokedMember):
    return (*_point_key(m), m.member_id)


def _group_key(g: ConstraintSet):
    return g.path


@dataclass(frozen=True)
class RevocationList:
    members: Tuple[RevokedMember, ...] = ()
    groups: Tuple[ConstraintSet, ...] = ()
    version: int = 0

    def __post_init__(self):
        members = tuple(sorted(self.members, key=_member_key))
        groups = tuple(sorted(self.groups, key=_group_key))
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "groups", groups)
        # entries of one point, or one path, sort side by side
        if any(a.point == b.point for a, b in zip(members, members[1:])):
            raise InvariantError("duplicate member point in revocation list")
        if any(a.path == b.path for a, b in zip(groups, groups[1:])):
            raise InvariantError("duplicate department path in revocation list")

    @cached_property
    def _digest(self) -> bytes:
        from . import serial  # deferred: serial sits above this module

        return hashlib.sha256(
            serial.serialize_artifact("rl", self).encode("utf-8")).digest()

    @cached_property
    def _collapse_memo(self) -> dict:
        """`sigma._collapse_all`'s results for this list, by (q, r, retry)."""
        return {}


_EMPTY = RevocationList()


def empty_rl() -> RevocationList:
    """The empty list, one shared object, so its hash is computed once."""
    return _EMPTY


def _next(rl: RevocationList, members=None, groups=None) -> RevocationList:
    """The version after `rl`, with new members or groups that are already
    canonical and free of duplicates: the list the constructor would build
    from them, without sorting and checking every entry again."""
    child = object.__new__(RevocationList)
    fields = {"members": rl.members if members is None else members,
              "groups": rl.groups if groups is None else groups,
              "version": rl.version + 1}
    for name, value in fields.items():
        object.__setattr__(child, name, value)
    return child


def _locate(entries, key, probe):
    """(i, listed): the first position in canonical `entries` whose key is
    not below `probe`, where an unlisted probe is inserted, and whether
    the entry there has key `probe`. Entries of one point differ only in
    id, so bisecting members by `_point_key` lands on the first of them."""
    i = bisect.bisect_left(entries, probe, key=key)
    return i, i < len(entries) and key(entries[i]) == probe


def is_member_revoked(rl: RevocationList, pk: PublicKey) -> bool:
    return _locate(rl.members, _point_key, _point_key(pk))[1]


def revoke_member(rl: RevocationList, pk: PublicKey) -> RevocationList:
    i, listed = _locate(rl.members, _point_key, _point_key(pk))
    if listed:
        raise ValueError(f"public key of {pk.member_id!r} is already revoked")
    member = RevokedMember(point=pk.point, member_id=pk.member_id)
    return _next(rl, members=rl.members[:i] + (member,) + rl.members[i:])


def revoke_group(rl: RevocationList, dept: DeptNode) -> RevocationList:
    if dept.level < 1:
        raise ValueError("the root has no hyperplane to revoke")
    i, listed = _locate(rl.groups, _group_key, dept.path)
    if listed:
        raise ValueError(f"department {dept.path!r} is already revoked")
    entry = ConstraintSet(path=dept.path, constraints=dept.constraints)
    return _next(rl, groups=rl.groups[:i] + (entry,) + rl.groups[i:])


def coalesce(rl: RevocationList, root: DeptNode) -> RevocationList:
    """Replace complete revoked sibling families by their parent's entry,
    cascading upward in one deepest-first pass: by the time a node is
    visited its children are settled, and later visits only touch
    shallower entries.

    Needs the GM tree: the list alone cannot tell whether a sibling family
    is complete. Keys on any child's subspace satisfy the parent's
    constraints by construction, so the blocked-key set is preserved.
    """
    entries = {g.path: g for g in rl.groups}
    changed = False
    for node in sorted(walk(root), key=lambda n: -n.level):
        if node.level < 1 or not node.children:
            continue
        if all(c.path in entries for c in node.children):
            for c in node.children:
                del entries[c.path]
            if node.path not in entries:
                entries[node.path] = ConstraintSet(
                    path=node.path, constraints=node.constraints)
            changed = True
    if not changed:
        return rl
    return _next(rl, groups=tuple(sorted(entries.values(), key=_group_key)))


def rl_hash(rl: RevocationList) -> bytes:
    """SHA-256 over the canonical serialized list; bound into every
    signature challenge. Serialized and hashed on the first call per list
    object; later calls return the stored digest."""
    return rl._digest
