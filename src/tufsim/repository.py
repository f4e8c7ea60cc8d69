"""The update-repository state machine and its accounting ledger.

A Repository holds an ordered list of role instances (Root, Timestamp,
Snapshot, Target) and counts, tick by tick, what a worst-case client pays:
one that downloads and verifies every signature the repository ever
publishes.  `publish_timestamp` advances one tick; `publish_timestamps(n)`
advances n ticks to the same state, jumping over quiet stretches in closed
form.  Both are checked against the plain four-phase tick and tick-by-tick
run in `tests/oracle.py`, which scan every role.

A tick visits only the roles that can act: the Root, Timestamp and
Snapshot roles, which are few, and the pending Targets, kept once each on
a due list by `stage_update` and `add_role`.  Their rollover check, the
signing and the quiet-stretch test never touch an idle Target, so a fleet
of thousands of Target bins costs per tick what its updated bins do.  Only
a root file, published when a key rolls over or a role is added or
removed, visits every role.

The ledger is integers only: each role, current or removed, counts its
signatures and the root files that carried its key.  Only `price_counts`
prices those counts, merged per algorithm and cost by `math.fsum`, so
totals do not depend on the order in which signatures were made;
`ledger_totals` and a sweep's per-assignment pricing both call it.
`RoleState` is a mutable `__slots__` record, read and written every tick;
`LedgerTotals` is a `typing.NamedTuple`.

Semantics worth knowing before reading the code:

* Every role starts with pending = rollover = True, so the first tick
  publishes a root file endorsing all public keys, and every initial
  Target and Snapshot signs once even with no update staged.
* Target roles are the only ones whose pending flag is ever set or
  cleared after they are added.  Root, Timestamp and Snapshot roles are
  always pending, which is what arms their signature-budget rollover in
  `rollover_check`: an exhausted key is detected and replaced the moment
  it would be needed again.
* A Snapshot signs whenever any Target signed this tick.
* Root-file publication charges the public key of every current role
  (reserve ones included) plus one signature per Root instance.
* A tick is quiet when no root update is flagged, no role has its
  rollover flag set, no pending role has an exhausted key and no
  non-reserve Target is pending.  On a quiet tick only the non-reserve
  Timestamps sign, and the state stays quiet until one of them exhausts
  its key.
"""

# No `from __future__ import annotations`: typing.NamedTuple compiles every
# postponed (string) field annotation when its class is made, at import.

import enum
import math
from collections.abc import Iterable
from typing import NamedTuple

from ._record import Record
from .algorithms import SignatureAlgorithm


class RoleType(enum.Enum):
    """The four signing roles; no other role kinds exist in this model."""

    ROOT = "Root"
    TIMESTAMP = "Timestamp"
    SNAPSHOT = "Snapshot"
    TARGET = "Target"


class RoleState(Record):
    """One role instance bound to a signature algorithm.

    lifetime_sigs counts every signature the role made; the current key,
    issued at key_start, made lifetime_sigs - key_start of them.
    key_publications counts the root files that carried the role's key.  A
    reserve role keeps its key in published root files but is excluded
    from routine signing; the flag is read when the role is used, so it
    may be written directly.  pending is kept with the repository's due
    list: set it through `Repository.stage_update`.

    A mutable `__slots__` record, read on every busy tick: equality
    compares the nine fields, and it is unhashable.
    """

    __slots__ = _fields = (
        "name", "role_type", "algorithm", "lifetime_sigs", "key_start",
        "key_publications", "reserve", "pending", "rollover",
    )

    def __init__(
        self,
        name: str,
        role_type: RoleType,
        algorithm: SignatureAlgorithm,
        lifetime_sigs: int = 0,
        key_start: int = 0,
        key_publications: int = 0,
        reserve: bool = False,
        pending: bool = True,
        rollover: bool = True,
    ) -> None:
        self.name = name
        self.role_type = role_type
        self.algorithm = algorithm
        self.lifetime_sigs = lifetime_sigs
        self.key_start = key_start
        self.key_publications = key_publications
        self.reserve = reserve
        self.pending = pending
        self.rollover = rollover


class LedgerTotals(NamedTuple):
    """Read-only snapshot of a repository's accumulated client-side cost."""

    name: str
    sig_bytes: int
    pk_bytes: int
    total_bytes: int
    cost: float
    signatures: int
    rollover_events: int
    root_publications: int


class Repository:
    """Named collection of role instances plus the cumulative ledger.

    Single-threaded: no two operations may run concurrently on the same
    instance.  Distinct repositories are fully independent.
    """

    def __init__(self, name: str):
        self.name = name
        self.roles: list[RoleState] = []
        self.retired: list[RoleState] = []  # removed roles, counts kept whole
        # Target roles by name, so staging an update touches only its matches
        self._targets: dict[str, list[RoleState]] = {}
        # what a busy tick visits: the current Root, Timestamp and Snapshot
        # roles, which are always pending, and each pending Target once
        self._others: list[RoleState] = []
        self._due: list[RoleState] = []
        self.rollover_events = 0
        self.root_publications = 0
        self.update_root = True  # a fresh repository needs a first root file

    def add_role(
        self, name: str, role_type: RoleType, algorithm: SignatureAlgorithm
    ) -> None:
        """Append a role instance and flag it (and any same-named sibling of
        the same type) for inclusion in the next root file.

        Duplicate names are permitted.
        """
        added = RoleState(name=name, role_type=role_type, algorithm=algorithm)
        self.roles.append(added)
        self.update_root = True
        if role_type is RoleType.TARGET:
            siblings = self._targets.setdefault(name, [])
            for role in siblings:
                role.rollover = True
                if not role.pending:
                    role.pending = True
                    self._due.append(role)
            siblings.append(added)
            self._due.append(added)
        else:
            for role in self._others:  # always pending: only re-key them
                if role.name == name and role.role_type is role_type:
                    role.rollover = True
            self._others.append(added)

    def remove_role(self, name: str) -> int:
        """Remove every role whose name matches; returns the number removed.

        Removed roles move to `retired` with their counts, so the ledger
        totals do not change.
        """
        kept = [role for role in self.roles if role.name != name]
        removed = len(self.roles) - len(kept)
        if removed:
            self.retired += [role for role in self.roles if role.name == name]
            self.roles[:] = kept
            self._targets.pop(name, None)
            self._others = [role for role in self._others if role.name != name]
            self._due = [role for role in self._due if role.name != name]
            self.update_root = True
        return removed

    def set_reserve(self, name: str, flag: bool) -> int:
        """Assign the reserve flag on every matching role; returns match count."""
        matched = [role for role in self._others if role.name == name]
        matched += self._targets.get(name, ())
        for role in matched:
            role.reserve = flag
        return len(matched)

    def missing_role_types(self) -> list[RoleType]:
        """The role types of which no current role remains, in enum order."""
        present = {role.role_type for role in self._others}
        if self._targets:
            present.add(RoleType.TARGET)
        return [role_type for role_type in RoleType if role_type not in present]

    def stage_update(self, target_name: str) -> int:
        """Require a signature of every Target named `target_name`.

        Only Targets are marked: the Snapshots they pull along are decided
        at the tick, from whether any Target signed.  Returns the number of
        matching Targets; no cost accrues here.
        """
        targets = self._targets.get(target_name, ())
        for role in targets:
            if not role.pending:
                role.pending = True
                self._due.append(role)
        return len(targets)

    def rollover_check(self) -> int:
        """Stage key replacements: any role already flagged for rollover, or
        whose current key is exhausted while a signature is required of it,
        gets a new key (key_start = lifetime_sigs) and its rollover flag set.

        Returns the number of roles processed.  publish_timestamp calls this
        internally; it is public so the trigger condition is testable alone.
        Only the Root, Timestamp and Snapshot roles and the pending Targets
        are visited: a Target is flagged for rollover only while pending.
        """
        rolled = 0
        for roles in (self._others, self._due):
            for role in roles:
                used = role.lifetime_sigs - role.key_start
                if role.rollover or (used == role.algorithm.max_sigs and role.pending):
                    role.rollover = True
                    role.key_start = role.lifetime_sigs
                    rolled += 1
        self.rollover_events += rolled
        return rolled

    def publish_timestamp(self) -> None:
        """Advance the repository by one tick.

        After `rollover_check`, if any role rolled over or a root update is
        flagged, a root file is published: every role's public key is
        downloaded and every Root instance signs.  Then each pending
        non-reserve Target signs and is cleared, each non-reserve Timestamp
        signs, and the non-reserve Snapshots sign if any Target did.
        """
        # read an enum member once per tick, not once per role: the class
        # attribute lookup costs about ten times a local read
        root, timestamp, snapshot = RoleType.ROOT, RoleType.TIMESTAMP, RoleType.SNAPSHOT
        if self.rollover_check() > 0 or self.update_root:
            for role in self.roles:
                role.key_publications += 1
                if role.role_type is root:
                    role.lifetime_sigs += 1
                role.rollover = False
            self.update_root = False
            self.root_publications += 1

        updated = False
        if self._due:
            reserved = []  # pending but not signing: they stay due
            for role in self._due:
                if role.reserve:
                    reserved.append(role)
                else:
                    role.pending = False
                    role.lifetime_sigs += 1
                    updated = True
            self._due = reserved
        for role in self._others:
            if role.reserve:
                continue
            role_type = role.role_type
            if role_type is timestamp or (updated and role_type is snapshot):
                role.lifetime_sigs += 1

    def publish_timestamps(self, count: int) -> None:
        """Advance the repository by `count` ticks.

        The state afterwards equals that after `count` calls of
        publish_timestamp.  Runs of quiet ticks are applied in closed form;
        every other tick goes through publish_timestamp.
        """
        while count > 1:
            stride = self._quiet_stride(count)
            if stride <= 1:
                self.publish_timestamp()
                count -= 1
                continue
            for role in self._others:
                if role.role_type is RoleType.TIMESTAMP and not role.reserve:
                    role.lifetime_sigs += stride
            count -= stride
        if count == 1:  # a single tick needs no quiet check
            self.publish_timestamp()

    def _quiet_stride(self, limit: int) -> int:
        """How many of the next `limit` ticks are quiet, in a row; 0 if the
        next tick is not.

        The run ends when a non-reserve Timestamp's key is exhausted: the
        tick after that rolls the key over.  A Target can end it only while
        pending, so only the due Targets are visited.
        """
        if self.update_root:
            return 0
        for role in self._due:  # pending, so a non-reserve one signs next tick
            used = role.lifetime_sigs - role.key_start
            if not role.reserve or role.rollover or used == role.algorithm.max_sigs:
                return 0
        stride = limit
        for role in self._others:
            used = role.lifetime_sigs - role.key_start
            if role.rollover or used == role.algorithm.max_sigs:
                return 0
            if role.role_type is RoleType.TIMESTAMP and not role.reserve:
                stride = min(stride, role.algorithm.max_sigs - used)
        return stride

    def ledger_totals(self) -> LedgerTotals:
        """Price the counts of current and removed roles with `price_counts`;
        read-only."""
        sig_bytes, pk_bytes, cost, signatures = price_counts(
            (role.algorithm, role.lifetime_sigs, role.key_publications)
            for role in self.roles + self.retired
        )
        return LedgerTotals(
            name=self.name,
            sig_bytes=sig_bytes,
            pk_bytes=pk_bytes,
            total_bytes=sig_bytes + pk_bytes,
            cost=cost,
            signatures=signatures,
            rollover_events=self.rollover_events,
            root_publications=self.root_publications,
        )


def price_counts(
    counts: Iterable[tuple[SignatureAlgorithm, int, int]],
) -> tuple[int, int, float, int]:
    """Price (algorithm, signatures, key publications) counts as signature
    bytes, public-key bytes, verification cost and signatures.

    Counts are merged per algorithm first, into one [signatures, key
    publications] entry each, so each sum has one term per algorithm,
    whatever the order of the counts, and the cost is one `math.fsum`.
    The only place where a count becomes bytes or cost.
    """
    merged: dict[SignatureAlgorithm, list[int]] = {}
    for algorithm, signatures, publications in counts:
        entry = merged.get(algorithm)
        if entry is None:
            merged[algorithm] = [signatures, publications]
        else:
            entry[0] += signatures
            entry[1] += publications
    return (
        sum(sigs * algorithm.sig_size for algorithm, (sigs, _) in merged.items()),
        sum(keys * algorithm.pk_size for algorithm, (_, keys) in merged.items()),
        math.fsum(sigs * algorithm.cost for algorithm, (sigs, _) in merged.items()),
        sum(sigs for sigs, _ in merged.values()),
    )
