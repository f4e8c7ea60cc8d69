"""The update-repository state machine and its accounting ledger.

A Repository holds an ordered list of role instances (Root, Timestamp,
Snapshot, Target) and counts, tick by tick, what a worst-case client pays:
one that downloads and verifies every signature the repository ever
publishes.  `publish_timestamp` advances one tick in a single signing
pass; `publish_timestamps(n)` advances n ticks to the same state, jumping
over quiet stretches in closed form.  Both are checked against the plain
four-phase tick and tick-by-tick run in `tests/oracle.py`.

The ledger is integers only: each role, current or removed, counts its
signatures and the root files that carried its key.  Only `price_counts`
prices those counts, merged per algorithm and cost by `math.fsum`, so
totals do not depend on the order in which signatures were made;
`ledger_totals` and a sweep's per-assignment pricing both call it.

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

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .algorithms import SignatureAlgorithm


class RoleType(enum.Enum):
    """The four signing roles; no other role kinds exist in this model."""

    ROOT = "Root"
    TIMESTAMP = "Timestamp"
    SNAPSHOT = "Snapshot"
    TARGET = "Target"


@dataclass
class RoleState:
    """One role instance bound to a signature algorithm.

    lifetime_sigs counts every signature the role made; the current key,
    issued at key_start, made lifetime_sigs - key_start of them.
    key_publications counts the root files that carried the role's key.  A
    reserve role keeps its key in published root files but is excluded
    from routine signing.
    """

    name: str
    role_type: RoleType
    algorithm: SignatureAlgorithm
    lifetime_sigs: int = 0
    key_start: int = 0
    key_publications: int = 0
    reserve: bool = False
    pending: bool = True
    rollover: bool = True


@dataclass(frozen=True)
class LedgerTotals:
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
        if role_type is RoleType.TARGET:
            self._targets.setdefault(name, []).append(added)
        self.update_root = True
        for role in self.roles:
            if role.name == name and role.role_type == role_type:
                role.rollover = True
                role.pending = True

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
            self.update_root = True
        return removed

    def set_reserve(self, name: str, flag: bool) -> int:
        """Assign the reserve flag on every matching role; returns match count."""
        matched = 0
        for role in self.roles:
            if role.name == name:
                role.reserve = flag
                matched += 1
        return matched

    def stage_update(self, target_name: str) -> int:
        """Require a signature of every Target named `target_name`.

        Only Targets are marked: the Snapshots they pull along are decided
        at the tick, from whether any Target signed.  Returns the number of
        matching Targets; no cost accrues here.
        """
        targets = self._targets.get(target_name, ())
        for role in targets:
            role.pending = True
        return len(targets)

    def rollover_check(self) -> int:
        """Stage key replacements: any role already flagged for rollover, or
        whose current key is exhausted while a signature is required of it,
        gets a new key (key_start = lifetime_sigs) and its rollover flag set.

        Returns the number of roles processed.  publish_timestamp calls this
        internally; it is public so the trigger condition is testable alone.
        """
        rolled = 0
        for role in self.roles:
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
        downloaded and every Root instance signs.  Then one pass over the
        roles: each non-reserve Timestamp signs, each pending non-reserve
        Target signs and is cleared, and the non-reserve Snapshots are
        collected; they sign after the pass if any Target signed.
        """
        # read an enum member once per tick, not once per role: the class
        # attribute lookup costs about ten times a local read
        root, timestamp = RoleType.ROOT, RoleType.TIMESTAMP
        snapshot, target = RoleType.SNAPSHOT, RoleType.TARGET
        if self.rollover_check() > 0 or self.update_root:
            for role in self.roles:
                role.key_publications += 1
                if role.role_type is root:
                    role.lifetime_sigs += 1
                role.rollover = False
            self.update_root = False
            self.root_publications += 1

        snapshots: list[RoleState] = []
        updated = False
        for role in self.roles:
            if role.reserve:
                continue
            role_type = role.role_type
            if role_type is target:
                if not role.pending:
                    continue
                role.pending = False
                updated = True
            elif role_type is snapshot:
                snapshots.append(role)
                continue
            elif role_type is not timestamp:
                continue
            role.lifetime_sigs += 1
        if updated:
            for role in snapshots:
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
            for role in self.roles:
                if role.role_type is RoleType.TIMESTAMP and not role.reserve:
                    role.lifetime_sigs += stride
            count -= stride
        if count == 1:  # a single tick needs no quiet check
            self.publish_timestamp()

    def _quiet_stride(self, limit: int) -> int:
        """How many of the next `limit` ticks are quiet, in a row; 0 if the
        next tick is not.

        The run ends when a non-reserve Timestamp's key is exhausted: the
        tick after that rolls the key over.
        """
        if self.update_root:
            return 0
        stride = limit
        for role in self.roles:
            if role.rollover:
                return 0
            used = role.lifetime_sigs - role.key_start
            if role.pending and (
                used == role.algorithm.max_sigs
                or (role.role_type is RoleType.TARGET and not role.reserve)
            ):
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
