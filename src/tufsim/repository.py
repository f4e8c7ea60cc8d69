"""The update-repository state machine and its accounting ledger.

A Repository holds an ordered list of role instances (Root, Timestamp,
Snapshot, Target) and counts, tick by tick, what a worst-case client pays:
one that downloads and verifies every signature the repository ever
publishes.  `publish_timestamp` advances one tick; `publish_timestamps(n)`
advances n ticks to the same state, applying the quiet ticks after each
real tick in closed form.  Both are checked against the plain four-phase
tick and tick-by-tick run in `tests/oracle.py`, which scan every role.

A tick visits only the roles that can act.  The Root, Timestamp and
Snapshot roles, which are few, are kept on one list per type, and the
pending Targets once each on a due list by `stage_update` and `add_role`.
The rollover check visits the due list every tick, and the three per-type
lists only when one of their keys can be used up: each of those roles
signs at most once a tick, so a check that visits them keeps a rollover
horizon, the fewest unused signatures among them less one (none while
one is flagged), and that many checks after it skip them.  `add_role`
ends the horizon, and a quiet run uses up one of its checks a tick.  The
signing reads only the Timestamps, the due Targets, and the Snapshots
when a Target signed; the quiet-run length reads the three per-type
lists.  None of them tests a role's type or touches an idle Target, so a
fleet of thousands of Target bins costs per tick what its updated bins
do.  Only a root file, published when a key rolls over or a role is
added or removed, visits every role, and the Root list signs it.

Role management goes through one name index, every current role by
name in `roles` order: `add_role` re-keys the same-named roles of the
new role's type from it, `remove_role` retires the roles under the name,
`set_reserve` flags them and `stage_update` stages the Targets among
them, so none of them scans the fleet to find a name.  Only a removal
rebuilds the lists, without the removed name.  The Targets are the roles
on none of the three per-type lists, so `missing_role_types` counts each
type from the list lengths alone, in constant time.

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
* A tick leaves no root update, no rollover flag, no signing Target due
  and no used-up key on a due Target.  So after any tick only the
  non-reserve Timestamps sign, tick after tick, until a Root, Timestamp
  or Snapshot key is used up: that is the quiet run `publish_timestamps`
  applies in closed form.
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


# Read once: on CPython 3.11 each read of an enum member through its class
# takes about 100 ns, against about 10 ns for a module global (timeit, on a
# 2-vCPU VM), and adding and staging test for this member on every call.
_TARGET = RoleType.TARGET


class RoleState(Record):
    """One role instance bound to a signature algorithm.

    lifetime_sigs counts every signature the role made; the current key,
    issued at key_start, made lifetime_sigs - key_start of them.
    key_publications counts the root files that carried the role's key.  A
    reserve role keeps its key in published root files but is excluded
    from routine signing; the flag is read when the role is used, so it
    may be written directly, and it is the only field that may be.
    pending is kept with the repository's due list: set it through
    `Repository.stage_update`.  A direct write of lifetime_sigs, key_start
    or rollover is not seen by the repository's rollover horizon, so a
    check may skip a key that such a write used up or flagged.

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
        # every current role by name, in `roles` order: adding, removing,
        # reserving and staging touch only the roles of the name they are given
        self._named: dict[str, list[RoleState]] = {}
        # the current Root, Timestamp and Snapshot roles, one list per type
        # in `roles` order: always pending, so every tick's rollover scan
        # visits them, and a tick signs from the list of the type it signs.
        # The Targets are the rest of `roles`, so `missing_role_types` reads
        # the four counts from the lengths alone.
        self._roots: list[RoleState] = []
        self._timestamps: list[RoleState] = []
        self._snapshots: list[RoleState] = []
        # the same three lists by role type, in enum order, for role
        # management; so the lists are only ever changed in place
        self._of_type = dict(zip(RoleType, (self._roots, self._timestamps, self._snapshots)))
        # each pending Target once: the only Targets a tick visits
        self._due: list[RoleState] = []
        # the coming rollover checks in which no Root, Timestamp or Snapshot
        # key can be used up or is flagged, so those checks skip the three lists
        self._horizon = 0
        self.rollover_events = 0
        self.root_publications = 0
        self.update_root = True  # a fresh repository needs a first root file

    def add_role(
        self, name: str, role_type: RoleType, algorithm: SignatureAlgorithm
    ) -> RoleState:
        """Append a role instance and flag it (and any same-named sibling of
        the same type) for inclusion in the next root file; returns it.

        Duplicate names are permitted.
        """
        added = RoleState(name=name, role_type=role_type, algorithm=algorithm)
        self.roles.append(added)
        self.update_root = True
        self._horizon = 0  # a new key, and same-named siblings flagged
        named = self._named.setdefault(name, [])
        for role in named:
            if role.role_type is role_type:
                role.rollover = True
                if not role.pending:  # only a Target is ever idle
                    role.pending = True
                    self._due.append(role)
        named.append(added)
        (self._due if role_type is _TARGET else self._of_type[role_type]).append(added)
        return added

    def remove_role(self, name: str) -> int:
        """Remove every role whose name matches; returns the number removed.

        Removed roles move to `retired` with their counts, so the ledger
        totals do not change.
        """
        removed = self._named.pop(name, ())
        if removed:
            self.retired += removed
            for roles in (self.roles, *self._of_type.values(), self._due):
                roles[:] = [role for role in roles if role.name != name]
            self.update_root = True
        return len(removed)

    def set_reserve(self, name: str, flag: bool) -> int:
        """Assign the reserve flag on every matching role; returns match count."""
        named = self._named.get(name, ())
        for role in named:
            role.reserve = flag
        return len(named)

    def missing_role_types(self) -> list[RoleType]:
        """The role types of which no current role remains, in enum order."""
        counts = [len(roles) for roles in self._of_type.values()]
        counts.append(len(self.roles) - sum(counts))  # the rest are Targets
        return [role_type for role_type, count in zip(RoleType, counts) if not count]

    def stage_update(self, target_name: str) -> int:
        """Require a signature of every Target named `target_name`.

        Only Targets are marked: the Snapshots they pull along are decided
        at the tick, from whether any Target signed.  Returns the number of
        matching Targets; no cost accrues here.
        """
        matched = 0
        for role in self._named.get(target_name, ()):
            if role.role_type is _TARGET:
                matched += 1
                if not role.pending:
                    role.pending = True
                    self._due.append(role)
        return matched

    def rollover_check(self) -> int:
        """Stage key replacements: any role already flagged for rollover, or
        whose current key is exhausted while a signature is required of it,
        gets a new key (key_start = lifetime_sigs) and its rollover flag set.

        Returns the number of roles processed.  publish_timestamp calls this
        internally; it is public so the trigger condition is testable alone.
        Only the Root, Timestamp and Snapshot roles and the pending Targets
        are visited, and all of them are pending: a Target is flagged for
        rollover only while pending.  The pending Targets are visited every
        time, the other three lists only when the rollover horizon is out:
        a check that visits them sets it to the fewest unused signatures
        among them less one, or below one while one of them is flagged,
        and each later check counts it down until it is out again.
        `add_role` ends it, and `publish_timestamps` takes a quiet run's
        ticks off it.
        """
        rolled = 0
        if self._horizon > 0:
            self._horizon -= 1
        else:
            # each of them signs at most once a tick, so a key with u unused
            # signatures is not found used up by the next u - 1 checks; a
            # flagged one is processed by every check until a root file
            # clears its flag
            least = math.inf
            for role in self._roots + self._timestamps + self._snapshots:
                unused = role.algorithm.max_sigs - role.lifetime_sigs + role.key_start
                if role.rollover or not unused:
                    role.rollover = True
                    role.key_start = role.lifetime_sigs
                    rolled += 1
                    least = 0
                elif unused < least:
                    least = unused
            self._horizon = least - 1
        for role in self._due:
            if role.rollover or role.lifetime_sigs - role.key_start == role.algorithm.max_sigs:
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
        if self.rollover_check() > 0 or self.update_root:
            for role in self.roles:
                role.key_publications += 1
                role.rollover = False
            for role in self._roots:
                role.lifetime_sigs += 1
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
        for role in self._timestamps:
            if not role.reserve:
                role.lifetime_sigs += 1
        if updated:
            for role in self._snapshots:
                if not role.reserve:
                    role.lifetime_sigs += 1

    def publish_timestamps(self, count: int) -> None:
        """Advance the repository by `count` ticks.

        The state afterwards equals that after `count` calls of
        publish_timestamp.  Each pass makes one real tick, then applies the
        quiet ticks that follow it in closed form: only the non-reserve
        Timestamps sign, until one of their keys or a Root or Snapshot key
        is used up.  A quiet run of one tick is left to the next pass, as a
        real tick.
        """
        while count > 0:
            self.publish_timestamp()
            count -= 1
            if count < 2:  # no quiet run longer than one tick fits
                continue
            quiet = count
            for role in self._timestamps:
                unused = role.algorithm.max_sigs - role.lifetime_sigs + role.key_start
                if unused < quiet and not role.reserve:  # a signer's key sets the run
                    quiet = unused
                elif not unused:  # used up: the next tick rolls it over
                    quiet = 0
            for roles in (self._roots, self._snapshots):
                for role in roles:
                    if role.lifetime_sigs - role.key_start == role.algorithm.max_sigs:
                        quiet = 0
            if quiet > 1:
                for role in self._timestamps:
                    if not role.reserve:
                        role.lifetime_sigs += quiet
                count -= quiet
                self._horizon -= quiet  # the quiet ticks' checks

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
