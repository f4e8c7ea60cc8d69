from __future__ import annotations

import ast
import copy
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tufsim import Repository, RoleState, RoleType
from tests.conftest import make_alg
from tests import oracle
from tests.oracle import ReferenceRepository, reference_tick


def build_repo(alg=None) -> Repository:
    """One instance of each role, added in the canonical order."""
    alg = alg or make_alg()
    repo = Repository("Device_A")
    repo.add_role("Root 1", RoleType.ROOT, alg)
    repo.add_role("Timestamp 1", RoleType.TIMESTAMP, alg)
    repo.add_role("Snapshot 1", RoleType.SNAPSHOT, alg)
    repo.add_role("Target 1", RoleType.TARGET, alg)
    return repo


def publish(repo: Repository) -> SimpleNamespace:
    """Advance one tick and return what it added to the ledger, plus the
    signatures per role type counted from the roles' lifetime_sigs."""
    before = repo.ledger_totals()
    lifetimes = [(role, role.lifetime_sigs) for role in repo.roles]
    assert repo.publish_timestamp() is None
    after = repo.ledger_totals()
    signatures = {role_type: 0 for role_type in RoleType}
    for role, lifetime in lifetimes:
        signatures[role.role_type] += role.lifetime_sigs - lifetime
    return SimpleNamespace(
        signatures=signatures,
        total_signatures=after.signatures - before.signatures,
        sig_bytes=after.sig_bytes - before.sig_bytes,
        pk_bytes=after.pk_bytes - before.pk_bytes,
        cost=after.cost - before.cost,
        rolled_roles=after.rollover_events - before.rollover_events,
        root_published=after.root_publications > before.root_publications,
        lifetimes=lifetimes,
    )


class TestConstruction:
    def test_fresh_repository(self):
        repo = Repository("Device_A")
        assert repo.roles == []
        assert repo.ledger_totals().signatures == 0
        assert repo.update_root is True

    def test_fresh_totals_are_zero(self):
        totals = Repository("Device_A").ledger_totals()
        assert (totals.sig_bytes, totals.pk_bytes, totals.total_bytes) == (0, 0, 0)
        assert totals.cost == 0.0
        assert totals.signatures == 0
        assert totals.rollover_events == 0
        assert totals.root_publications == 0

    def test_publish_on_roleless_repository(self):
        repo = Repository("Device_A")
        report = publish(repo)
        assert report.root_published is True
        assert report.total_signatures == 0
        assert (report.sig_bytes, report.pk_bytes, report.cost) == (0, 0, 0.0)
        assert repo.update_root is False
        assert repo.root_publications == 1

    def test_role_type_has_exactly_four_members(self):
        assert {t.value for t in RoleType} == {"Root", "Timestamp", "Snapshot", "Target"}
        with pytest.raises(ValueError):
            RoleType("Mirror")


class TestRoleManagement:
    def test_add_role_flags(self):
        repo = Repository("Device_A")
        repo.update_root = False
        repo.add_role("Root 1", RoleType.ROOT, make_alg())
        assert len(repo.roles) == 1
        assert repo.update_root is True
        role = repo.roles[0]
        assert role.pending is True and role.rollover is True
        assert role.lifetime_sigs - role.key_start == 0

    def test_add_role_returns_the_role_it_adds(self):
        repo = build_repo()
        for role_type in (RoleType.TARGET, RoleType.ROOT):
            added = repo.add_role("Extra", role_type, make_alg())
            assert added is repo.roles[-1]
            assert (added.name, added.role_type) == ("Extra", role_type)

    def test_add_second_instance_of_same_type(self):
        repo = build_repo()
        repo.add_role("Target 2", RoleType.TARGET, make_alg())
        targets = [r for r in repo.roles if r.role_type is RoleType.TARGET]
        assert len(targets) == 2
        assert repo.update_root is True

    def test_add_duplicate_reflags_existing(self):
        repo = build_repo()
        repo.publish_timestamp()  # clears initial flags
        target = next(r for r in repo.roles if r.name == "Target 1")
        assert target.pending is False
        repo.add_role("Target 1", RoleType.TARGET, make_alg())
        assert target.pending is True and target.rollover is True

    @pytest.mark.parametrize("role_type", [RoleType.ROOT, RoleType.TIMESTAMP, RoleType.SNAPSHOT])
    def test_add_duplicate_rekeys_a_same_named_role_of_its_type_only(self, role_type):
        repo = build_repo()
        repo.publish_timestamp()  # clears initial flags
        existing = next(r for r in repo.roles if r.role_type is role_type)
        other_type = RoleType.SNAPSHOT if role_type is RoleType.ROOT else RoleType.ROOT
        repo.add_role(existing.name, other_type, make_alg())
        assert existing.rollover is False
        repo.add_role(existing.name, role_type, make_alg())
        assert existing.rollover is True and existing.pending is True
        assert [r.name for r in repo.roles if r.rollover] == [existing.name] * 3

    def test_remove_existing_role(self):
        repo = build_repo()
        repo.publish_timestamp()
        repo.update_root = False
        assert repo.remove_role("Timestamp 1") == 1
        assert repo.update_root is True

    def test_remove_missing_role(self):
        repo = build_repo()
        repo.publish_timestamp()
        repo.update_root = False
        assert repo.remove_role("Nonexistent") == 0
        assert repo.update_root is False

    def test_remove_takes_all_duplicates(self):
        repo = build_repo()
        repo.add_role("Target 1", RoleType.TARGET, make_alg())
        assert repo.remove_role("Target 1") == 2

    def test_remove_moves_lifetime_to_retired_tally(self):
        alg = make_alg()
        repo = build_repo(alg)
        for _ in range(3):
            repo.publish_timestamp()
        before = repo.ledger_totals()
        timestamp = repo.roles[1]
        repo.remove_role("Timestamp 1")
        assert repo.retired == [timestamp] and timestamp not in repo.roles
        assert (timestamp.algorithm, timestamp.lifetime_sigs) == (alg, 3)
        assert repo.ledger_totals() == before

    @pytest.mark.parametrize("k", [1, 3])
    def test_removed_role_keeps_its_key_publications(self, k):
        repo = build_repo()
        repo.publish_timestamp()  # the first root file, before Target 2 exists
        repo.add_role("Target 2", RoleType.TARGET, make_alg("AlgX", pk_size=7))
        target = repo.roles[-1]
        grown = []
        for _ in range(k):
            repo.update_root = True
            grown.append(publish(repo).pk_bytes)
        repo.remove_role("Target 2")
        later = [publish(repo).pk_bytes for _ in range(2)]  # removal's root file, then none
        assert target.key_publications == k
        assert grown == [4 * 50 + 7] * k
        assert later == [4 * 50, 0]
        assert repo.ledger_totals().pk_bytes == (k + 2) * 4 * 50 + k * 7


class TestReserve:
    def test_set_reserve_counts_matches(self):
        repo = build_repo()
        assert repo.set_reserve("Timestamp 1", True) == 1
        assert repo.set_reserve("Nonexistent", True) == 0

    def test_reserve_excludes_from_timestamp_signing(self):
        repo = build_repo()
        repo.publish_timestamp()
        repo.set_reserve("Timestamp 1", True)
        report = publish(repo)
        assert report.signatures[RoleType.TIMESTAMP] == 0

    def test_cleared_reserve_signs_again(self):
        repo = build_repo()
        repo.publish_timestamp()
        repo.set_reserve("Timestamp 1", True)
        repo.publish_timestamp()
        repo.set_reserve("Timestamp 1", False)
        report = publish(repo)
        assert report.signatures[RoleType.TIMESTAMP] == 1

    def test_reserve_key_still_published_in_root_file(self):
        repo = build_repo()
        repo.set_reserve("Target 1", True)
        report = publish(repo)
        assert report.root_published
        assert report.pk_bytes == 4 * 50
        assert report.signatures[RoleType.TARGET] == 0

    def test_reserve_root_still_signs_root_file(self):
        # the root phase does not consult the reserve flag on Root roles
        repo = build_repo()
        repo.set_reserve("Root 1", True)
        report = publish(repo)
        assert report.signatures[RoleType.ROOT] == 1


class TestStageUpdate:
    def test_stage_sets_target_pending(self):
        repo = build_repo()
        repo.publish_timestamp()
        assert repo.stage_update("Target 1") == 1
        target = next(r for r in repo.roles if r.role_type is RoleType.TARGET)
        snapshot = next(r for r in repo.roles if r.role_type is RoleType.SNAPSHOT)
        assert target.pending is True and snapshot.pending is True

    def test_stage_unknown_target(self):
        repo = build_repo()
        repo.publish_timestamp()
        target = next(r for r in repo.roles if r.role_type is RoleType.TARGET)
        assert repo.stage_update("Target X") == 0
        assert target.pending is False

    def test_stage_matches_every_duplicate(self):
        repo = build_repo()
        repo.add_role("Target 1", RoleType.TARGET, make_alg())
        repo.add_role("Target 2", RoleType.TARGET, make_alg())
        repo.publish_timestamp()
        assert repo.stage_update("Target 1") == 2
        targets = [r for r in repo.roles if r.role_type is RoleType.TARGET]
        assert [(r.name, r.pending) for r in targets] == [
            ("Target 1", True), ("Target 1", True), ("Target 2", False)
        ]

    def test_stage_reaches_a_re_added_target_not_the_removed_one(self):
        repo = build_repo()
        repo.publish_timestamp()
        removed = repo.roles[3]
        assert repo.remove_role("Target 1") == 1
        assert repo.stage_update("Target 1") == 0
        repo.add_role("Target 1", RoleType.TARGET, make_alg())
        added = repo.roles[-1]
        repo.publish_timestamp()
        assert repo.stage_update("Target 1") == 1
        assert added.pending is True and removed.pending is False

    def test_stage_skips_a_non_target_sharing_a_target_s_name(self):
        repo = build_repo()
        repo.add_role("Shared", RoleType.TIMESTAMP, make_alg())
        assert repo.stage_update("Shared") == 0
        repo.add_role("Shared", RoleType.TARGET, make_alg())
        repo.publish_timestamp()
        assert repo.stage_update("Shared") == 1
        assert repo.roles[-1].pending is True
        assert repo.remove_role("Shared") == 2
        assert repo.stage_update("Shared") == 0


class TestRolloverCheck:
    def test_fresh_repository_rolls_every_role(self):
        repo = build_repo()
        assert repo.rollover_check() == 4
        assert repo.rollover_events == 4

    def test_exhausted_pending_role_is_reset(self):
        repo = build_repo(make_alg(max_sigs=3))
        for _ in range(3):
            repo.publish_timestamp()
        ts = next(r for r in repo.roles if r.role_type is RoleType.TIMESTAMP)
        assert ts.lifetime_sigs - ts.key_start == 3
        rolled = repo.rollover_check()
        assert rolled >= 1
        assert ts.rollover is True and ts.lifetime_sigs - ts.key_start == 0

    def test_exhausted_idle_target_waits(self):
        repo = build_repo(make_alg(max_sigs=1))
        repo.publish_timestamp()  # target signs once, key now exhausted
        target = next(r for r in repo.roles if r.role_type is RoleType.TARGET)
        assert target.lifetime_sigs - target.key_start == 1 and target.pending is False
        repo.rollover_check()
        assert target.rollover is False and target.lifetime_sigs - target.key_start == 1


class TestPublishTimestamp:
    def test_first_tick(self):
        repo = build_repo()
        report = publish(repo)
        assert report.total_signatures == 4
        assert report.signatures == {
            RoleType.ROOT: 1,
            RoleType.TARGET: 1,
            RoleType.SNAPSHOT: 1,
            RoleType.TIMESTAMP: 1,
        }
        assert report.sig_bytes == 400
        assert report.pk_bytes == 200
        assert report.cost == pytest.approx(4.0, abs=1e-6)
        assert report.rolled_roles == 4
        assert report.root_published is True

    def test_steady_state_tick(self):
        repo = build_repo()
        repo.publish_timestamp()
        report = publish(repo)
        assert report.total_signatures == 1
        assert report.sig_bytes == 100
        assert report.pk_bytes == 0
        assert report.cost == pytest.approx(1.0, abs=1e-6)
        assert report.root_published is False

    def test_tick_after_staged_update(self):
        repo = build_repo()
        repo.publish_timestamp()
        repo.stage_update("Target 1")
        report = publish(repo)
        assert report.total_signatures == 3
        assert report.pk_bytes == 0
        assert report.signatures[RoleType.ROOT] == 0

    def test_ledger_deltas_match_the_tick_s_signatures(self):
        repo = build_repo(make_alg(max_sigs=2))
        for i in range(8):
            if i % 3 == 0:
                repo.stage_update("Target 1")
            report = publish(repo)
            signed = [(role, role.lifetime_sigs - n) for role, n in report.lifetimes]
            assert report.sig_bytes == sum(r.algorithm.sig_size * k for r, k in signed)
            assert report.total_signatures == sum(k for _, k in signed)
            assert report.cost == sum(r.algorithm.cost * k for r, k in signed)
            assert report.root_published == (report.signatures[RoleType.ROOT] > 0)
            assert report.pk_bytes == (
                sum(r.algorithm.pk_size for r in repo.roles) if report.root_published else 0
            )

    def test_pk_bytes_accrue_only_with_root_publication(self):
        repo = build_repo()
        for i in range(20):
            if i == 10:
                repo.add_role("Target 2", RoleType.TARGET, make_alg())
            report = publish(repo)
            if report.root_published:
                assert report.pk_bytes == sum(r.algorithm.pk_size for r in repo.roles)
            else:
                assert report.pk_bytes == 0


class TestLedgerTotals:
    def test_ten_day_scenario_totals(self, uniform_alg):
        repo = build_repo(uniform_alg)
        for day in range(1, 11):
            if day in (3, 7):
                repo.stage_update("Target 1")
            repo.publish_timestamp()
        totals = repo.ledger_totals()
        assert totals.sig_bytes == 1700
        assert totals.pk_bytes == 200
        assert totals.total_bytes == 1900
        assert totals.cost == pytest.approx(17.0, abs=1e-6)
        assert totals.signatures == 17
        assert totals.rollover_events == 4
        assert totals.root_publications == 1

    def test_totals_are_read_only(self):
        repo = build_repo()
        repo.publish_timestamp()
        assert repo.ledger_totals() == repo.ledger_totals()


def snapshot(repo) -> dict:
    """Every public ledger field, and every RoleState field of each current
    and retired role, by value, of an engine or a reference repository.
    The private lists are checked by `assert_indexed` on the engine side
    instead: the reference tick clears `pending` itself, so a copy of the
    engine's repository that it ticks keeps stale entries on its due list."""
    state = {
        key: value for key, value in vars(repo).items()
        if key not in ("roles", "retired") and not key.startswith("_")
    }
    for key in ("roles", "retired"):
        state[key] = [
            {field: getattr(role, field) for field in RoleState._fields}
            for role in getattr(repo, key)
        ]
    return state


def assert_indexed(repo: Repository) -> None:
    """The private lists hold their invariant: the name index groups the
    current roles by name, each name's roles in `roles` order; the Root,
    Timestamp and Snapshot lists each hold the current roles of their
    type, in `roles` order, and are the lists that `_of_type` holds by
    type; the due list and the parked lists together hold every pending
    Target exactly once and nothing else; and each parked list is not
    empty and holds only reserve Targets of its own name."""
    named: dict[str, list[int]] = {}
    for role in repo.roles:
        named.setdefault(role.name, []).append(id(role))
    assert {name: list(map(id, roles)) for name, roles in repo._named.items()} == named
    per_type = {
        RoleType.ROOT: repo._roots,
        RoleType.TIMESTAMP: repo._timestamps,
        RoleType.SNAPSHOT: repo._snapshots,
    }
    for role_type, roles in per_type.items():
        assert repo._of_type[role_type] is roles
        assert list(map(id, roles)) == [
            id(role) for role in repo.roles if role.role_type is role_type
        ]
    assert list(repo._of_type) == list(per_type)
    parked = []
    for name, roles in repo._parked.items():
        assert roles and all(
            role.name == name and role.reserve and role.role_type is RoleType.TARGET
            for role in roles
        )
        parked += roles
    assert sorted(map(id, repo._due + parked)) == sorted(
        id(role) for role in repo.roles if role.role_type is RoleType.TARGET and role.pending
    )


ROLE_NAMES = ["Root 1", "Timestamp 1", "Timestamp 2", "Snapshot 1", "Target 1", "Target 2"]
differential_algs = st.builds(
    make_alg,
    name=st.just("Alg"),
    sig_size=st.integers(0, 5000),
    pk_size=st.integers(0, 2000),
    max_sigs=st.sampled_from([1, 2, 3, 4, 5, 10**18]),
    cost=st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 2.9, 4.3, 1e-9]),
)
differential_ops = st.one_of(
    st.tuples(
        st.just("add"), st.sampled_from(ROLE_NAMES), st.sampled_from(list(RoleType)),
        differential_algs,
    ),
    st.tuples(st.just("remove"), st.sampled_from(ROLE_NAMES)),
    st.tuples(st.just("reserve"), st.sampled_from(ROLE_NAMES), st.booleans()),
    st.tuples(st.just("stage"), st.sampled_from(ROLE_NAMES)),
)
# two names of the first roles, over every role type, so that an operation
# often meets several roles of its name, and an add a sibling of its own
# type to re-key
sibling_names = st.sampled_from(["Timestamp 1", "Target 1"])
sibling_ops = st.one_of(
    st.tuples(st.just("add"), sibling_names, st.sampled_from(list(RoleType)), differential_algs),
    st.tuples(st.just("remove"), sibling_names),
    st.tuples(st.just("reserve"), sibling_names, st.booleans()),
    st.tuples(st.just("stage"), sibling_names),
)


def apply(repo: Repository, op: tuple) -> None:
    if op[0] == "add":
        repo.add_role(op[1], op[2], op[3])
    elif op[0] == "remove":
        repo.remove_role(op[1])
    elif op[0] == "reserve":
        repo.set_reserve(op[1], op[2])
    else:
        repo.stage_update(op[1])


class TestPublishTimestamps:
    """publish_timestamps(n) against n calls of the oracle's reference_tick
    on the oracle's own repository, which applies the same operations."""

    @given(
        catalog=st.lists(differential_algs, min_size=4, max_size=4),
        steps=st.lists(
            st.tuples(
                st.lists(differential_ops, max_size=3),
                st.integers(0, 12) | st.integers(0, 3000),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(deadline=None, max_examples=100)
    def test_matches_tick_by_tick(self, catalog, steps):
        self.assert_matches(catalog, steps)

    @given(
        catalog=st.lists(differential_algs, min_size=4, max_size=4),
        steps=st.lists(
            st.tuples(st.lists(sibling_ops, min_size=1, max_size=4), st.integers(0, 3)),
            min_size=6,
            max_size=12,
        ),
    )
    @settings(deadline=None, max_examples=100)
    def test_matches_tick_by_tick_among_same_named_roles(self, catalog, steps):
        self.assert_matches(catalog, steps)

    @staticmethod
    def assert_matches(catalog, steps):
        jumped, reference = Repository("Device_A"), ReferenceRepository("Device_A")
        for repo in (jumped, reference):
            for role_type, algorithm in zip(RoleType, catalog):
                repo.add_role(f"{role_type.value} 1", role_type, algorithm)
        for ops, count in steps:
            for repo in (jumped, reference):
                for op in ops:
                    apply(repo, op)
            jumped.publish_timestamps(count)
            for _ in range(count):
                reference_tick(reference)
            assert snapshot(jumped) == snapshot(reference)
            assert_indexed(jumped)

    def test_quiet_stretch_is_jumped(self, monkeypatch):
        repo = build_repo(make_alg(max_sigs=1024, cost=0.1))
        calls = []
        single = repo.publish_timestamp
        monkeypatch.setattr(repo, "publish_timestamp", lambda: calls.append(1) or single())
        repo.publish_timestamps(10_000)
        # the first tick plus one rollover tick per 1024 Timestamp signatures
        assert repo.root_publications == len(calls) == 1 + 9
        # every tick's Timestamp, one Target and Snapshot, one Root per root file
        assert repo.ledger_totals().signatures == 10_000 + 2 + 10


# shared across types, so duplicates and cross-type name clashes occur
TICK_NAMES = ["Root 1", "Timestamp 1", "Snapshot 1", "Target 1", "Target 2", "Shared"]
tick_algs = st.builds(
    make_alg,
    sig_size=st.integers(0, 999),
    pk_size=st.integers(0, 999),
    max_sigs=st.integers(1, 5),
)
tick_role_sets = st.tuples(
    *(
        st.lists(
            st.tuples(st.sampled_from(TICK_NAMES), st.just(role_type), tick_algs, st.booleans()),
            min_size=1,
            max_size=3,
        )
        for role_type in RoleType
    )
).flatmap(lambda groups: st.permutations([spec for group in groups for spec in group]))
op_names = st.sampled_from(TICK_NAMES + ["Nobody"])
tick_ops = st.one_of(
    st.just(("tick",)),
    st.tuples(st.just("stage"), op_names),
    st.tuples(st.just("add"), op_names, st.sampled_from(list(RoleType)), tick_algs),
    st.tuples(st.just("remove"), op_names),
    st.tuples(st.just("reserve"), op_names, st.booleans()),
)


class TestPublishTimestampOracle:
    """publish_timestamp against the four-phase reference_tick, one tick at
    a time from the same state."""

    @given(role_set=tick_role_sets, ops=st.lists(tick_ops, max_size=40))
    @settings(deadline=None, max_examples=200)
    def test_matches_reference_tick(self, role_set, ops):
        repo = Repository("Device_A")
        for name, role_type, algorithm, reserve in role_set:
            repo.add_role(name, role_type, algorithm)
            repo.roles[-1].reserve = reserve
        for op in [("tick",), *ops, ("tick",)]:
            if op[0] != "tick":
                apply(repo, op)
                continue
            expected = copy.deepcopy(repo)
            reference_tick(expected)
            repo.publish_timestamp()
            assert snapshot(repo) == snapshot(expected)
            assert_indexed(repo)


class TestRolloverHorizon:
    """The rollover checks that skip the Root, Timestamp and Snapshot keys
    while none of them can run out, at its edges: the engine against the
    oracle's `reference_tick` on its own repository, given the same
    operations, compared after every tick."""

    @staticmethod
    def pair(*roles):
        """An engine and an oracle repository, each holding the given
        (name, role type, key budget) roles in order."""
        pair = Repository("Device_A"), ReferenceRepository("Device_A")
        for repo in pair:
            for name, role_type, max_sigs in roles:
                repo.add_role(name, role_type, make_alg(name=f"Alg{max_sigs}", max_sigs=max_sigs))
        return pair

    @staticmethod
    def tick(repo, reference, ops=()):
        for side in (repo, reference):
            for op in ops:
                apply(side, op)
        repo.publish_timestamp()
        reference_tick(reference)
        assert snapshot(repo) == snapshot(reference)
        assert_indexed(repo)

    @pytest.mark.parametrize("budgets", [(1, 1), (2, 2), (1, 2)])
    def test_timestamps_of_budgets_one_and_two(self, budgets):
        repo, reference = self.pair(
            ("Root 1", RoleType.ROOT, 10**6),
            ("Timestamp 1", RoleType.TIMESTAMP, budgets[0]),
            ("Timestamp 2", RoleType.TIMESTAMP, budgets[1]),
            ("Snapshot 1", RoleType.SNAPSHOT, 10**6),
            ("Target 1", RoleType.TARGET, 10**6),
        )
        for tick in range(24):
            self.tick(repo, reference, [("stage", "Target 1")] if tick % 3 == 0 else [])
            # no horizon outlasts the smaller key's budget
            assert repo._horizon < min(budgets)
        assert repo.rollover_events == reference.rollover_events > 24

    def test_same_named_roles_added_while_no_key_can_run_out(self):
        repo, reference = self.pair(
            ("Root 1", RoleType.ROOT, 8),
            ("Timestamp 1", RoleType.TIMESTAMP, 8),
            ("Snapshot 1", RoleType.SNAPSHOT, 8),
            ("Target 1", RoleType.TARGET, 10**6),
        )
        for name, role_type in [("Root 1", RoleType.ROOT), ("Timestamp 1", RoleType.TIMESTAMP),
                                ("Snapshot 1", RoleType.SNAPSHOT)]:
            for _ in range(8):  # a key's budget
                self.tick(repo, reference, [("stage", "Target 1")])
                if repo._horizon > 0:
                    break
            assert repo._horizon > 0
            # the add re-keys the current role of its name and type
            self.tick(repo, reference, [("add", name, role_type, make_alg(name="Alg8", max_sigs=8))])
            for _ in range(10):
                self.tick(repo, reference, [("stage", "Target 1")])
        assert len(repo.roles) == 7

    @pytest.mark.parametrize("quiet", [11, 40])
    def test_a_quiet_run_past_the_horizon_then_busy_ticks(self, quiet):
        repo, reference = self.pair(
            ("Root 1", RoleType.ROOT, 4),
            ("Timestamp 1", RoleType.TIMESTAMP, 12),
            ("Snapshot 1", RoleType.SNAPSHOT, 6),
            ("Target 1", RoleType.TARGET, 10**6),
        )
        self.tick(repo, reference)
        # the Root's short key sets the horizon, the Timestamp's the quiet
        # run, which lasts until the Timestamp's key is used up
        repo.publish_timestamps(quiet)
        for _ in range(quiet):
            reference_tick(reference)
        assert snapshot(repo) == snapshot(reference)
        assert repo._horizon < 0
        for _ in range(30):
            self.tick(repo, reference, [("stage", "Target 1")])

    def test_a_reserve_timestamp_whose_key_is_used_up(self):
        repo, reference = self.pair(
            ("Root 1", RoleType.ROOT, 10**6),
            ("Timestamp 1", RoleType.TIMESTAMP, 3),
            ("Timestamp 2", RoleType.TIMESTAMP, 10**6),
            ("Snapshot 1", RoleType.SNAPSHOT, 10**6),
            ("Target 1", RoleType.TARGET, 10**6),
        )
        for _ in range(3):
            self.tick(repo, reference)
        # reserved with its last signature made: still pending, so the next
        # check gives it a new key although it does not sign
        used_up = repo.roles[1]
        assert used_up.lifetime_sigs - used_up.key_start == 3
        self.tick(repo, reference, [("reserve", "Timestamp 1", True)])
        assert used_up.key_start == used_up.lifetime_sigs == 3
        for _ in range(5):
            self.tick(repo, reference)
        repo.publish_timestamps(20)
        for _ in range(20):
            reference_tick(reference)
        assert snapshot(repo) == snapshot(reference)
        self.tick(repo, reference, [("reserve", "Timestamp 1", False)])
        for _ in range(8):
            self.tick(repo, reference, [("stage", "Target 1")])


class TestParkedTargets:
    """A staged reserve Target, which a tick parks off the due list until
    its reserve is cleared or a same-named Target's add re-keys it: the
    engine against the oracle's `reference_tick` on its own repository,
    given the same operations, compared after every tick."""

    pair = staticmethod(TestRolloverHorizon.pair)
    tick = staticmethod(TestRolloverHorizon.tick)

    def fleet(self, target_budget=10**6):
        return self.pair(
            ("Root 1", RoleType.ROOT, 10**6),
            ("Timestamp 1", RoleType.TIMESTAMP, 10**6),
            ("Snapshot 1", RoleType.SNAPSHOT, 10**6),
            ("Target 1", RoleType.TARGET, target_budget),
            ("Target 2", RoleType.TARGET, 10**6),
        )

    def park(self, repo, reference):
        """Reserve and stage Target 1, and tick: it is then parked."""
        self.tick(repo, reference, [("reserve", "Target 1", True), ("stage", "Target 1")])
        parked = repo._named["Target 1"][-1]
        assert parked not in repo._due and repo._parked == {"Target 1": [parked]}
        return parked

    def test_a_staged_reserve_target_held_for_many_ticks(self):
        repo, reference = self.fleet()
        self.tick(repo, reference)
        parked = self.park(repo, reference)
        for tick in range(40):
            self.tick(repo, reference, [("stage", "Target 2")] if tick % 4 == 0 else [])
            assert repo._due == [] and parked.pending
        self.tick(repo, reference, [("stage", "Target 1")])  # still pending: nothing to stage
        assert parked.lifetime_sigs == 1

    def test_the_reserve_cleared(self):
        repo, reference = self.fleet()
        self.tick(repo, reference)
        parked = self.park(repo, reference)
        self.tick(repo, reference)
        self.tick(repo, reference, [("reserve", "Target 1", True)])  # set again: stays parked
        assert repo._parked == {"Target 1": [parked]}
        self.tick(repo, reference, [("reserve", "Target 1", False)])
        assert parked.lifetime_sigs == 2 and not parked.pending and repo._parked == {}
        for _ in range(3):
            self.tick(repo, reference, [("stage", "Target 1")])

    def test_a_same_named_target_added_while_one_is_parked(self):
        repo, reference = self.fleet()
        self.tick(repo, reference)
        parked = self.park(repo, reference)
        self.tick(repo, reference)
        # the add re-keys the parked Target, which is then parked again
        self.tick(repo, reference, [("add", "Target 1", RoleType.TARGET, make_alg(name="Alg3",
                                                                                max_sigs=3))])
        assert parked.key_start == parked.lifetime_sigs == 1
        # a same-named role of another type re-keys no Target
        self.tick(repo, reference, [("add", "Target 1", RoleType.SNAPSHOT, make_alg())])
        assert repo._parked == {"Target 1": [parked]}
        for _ in range(8):
            self.tick(repo, reference, [("stage", "Target 1")])
        self.tick(repo, reference, [("reserve", "Target 1", False), ("stage", "Target 1")])
        for _ in range(4):
            self.tick(repo, reference, [("stage", "Target 1")])

    def test_the_name_removed_while_parked_then_re_added_and_unreserved(self):
        repo, reference = self.fleet()
        self.tick(repo, reference)
        parked = self.park(repo, reference)
        self.tick(repo, reference, [("remove", "Target 1")])
        assert repo._parked == {} and parked in repo.retired
        self.tick(repo, reference)
        self.tick(repo, reference, [("add", "Target 1", RoleType.TARGET, make_alg())])
        self.park(repo, reference)
        self.tick(repo, reference, [("reserve", "Target 1", False)])
        for _ in range(3):
            self.tick(repo, reference, [("stage", "Target 1")])
        assert parked.lifetime_sigs == 1 and parked.pending

    def test_a_reserve_target_whose_key_is_used_up_when_it_is_staged(self):
        repo, reference = self.fleet(target_budget=1)
        self.tick(repo, reference)  # its one signature
        # the tick that parks it rolls its used-up key over first
        parked = self.park(repo, reference)
        assert parked.key_start == parked.lifetime_sigs == 1 and repo.rollover_events == 6
        for _ in range(5):
            self.tick(repo, reference, [("stage", "Target 2")])
        assert repo.rollover_events == 6
        self.tick(repo, reference, [("reserve", "Target 1", False)])
        for _ in range(3):  # then each signature uses up a key
            self.tick(repo, reference, [("stage", "Target 1")])


class TestRootFileCounter:
    """Each role reads its key publications from its repository's count of
    root files, so a root file visits no role."""

    def test_key_publications_follow_the_root_files_while_current(self):
        repo = build_repo()
        root = repo.roles[0]
        for count in range(1, 4):
            repo.update_root = True
            repo.publish_timestamp()
            assert root.key_publications == count
        repo.remove_role("Root 1")
        for _ in range(2):
            repo.update_root = True
            repo.publish_timestamp()
        assert root.key_publications == 3 and repo.root_publications == 5

    def test_a_direct_write_sets_the_count_as_of_then(self):
        repo = build_repo()
        repo.publish_timestamp()
        target = repo.roles[3]
        target.key_publications = 10
        assert target.key_publications == 10
        repo.update_root = True
        repo.publish_timestamp()
        assert target.key_publications == 11
        assert RoleState("T", RoleType.TARGET, make_alg(), key_publications=4).key_publications == 4

    def test_a_root_file_clears_the_flags_the_check_met(self):
        repo = build_repo()
        repo.publish_timestamp()
        repo.add_role("Target 1", RoleType.TARGET, make_alg())
        flagged = [role for role in repo.roles if role.rollover]
        assert len(flagged) == 2
        repo.publish_timestamp()
        assert not any(role.rollover for role in repo.roles)
        assert repo.rollover_events == 6 and repo.root_publications == 2


def test_the_oracle_imports_no_engine_state():
    """The oracle names neither the engine's repository, its role record nor
    its pricing, in an import or anywhere else, so no differential test
    shares the engine's role management, staging or pricing."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None))
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert names & {"Repository", "RoleState", "price_counts", "tufsim.repository"} == set()


class RepositoryMachine(RuleBasedStateMachine):
    """Random op sequences must preserve the ledger invariants."""

    def __init__(self):
        super().__init__()
        self.repo = Repository("fuzz")
        for name, role_type in [
            ("Root 0", RoleType.ROOT),
            ("Timestamp 0", RoleType.TIMESTAMP),
            ("Snapshot 0", RoleType.SNAPSHOT),
            ("Target 0", RoleType.TARGET),
        ]:
            self.repo.add_role(name, role_type, make_alg(max_sigs=2))
        self.prev = self.repo.ledger_totals()
        self.prev_lifetimes = []

    names = st.sampled_from(["Root 0", "Timestamp 0", "Role 1", "Role 2", "Target 0"])

    @rule(
        name=names,
        role_type=st.sampled_from(list(RoleType)),
        max_sigs=st.sampled_from([1, 2, 3, 5]),
    )
    def add(self, name, role_type, max_sigs):
        self.repo.add_role(name, role_type, make_alg(max_sigs=max_sigs))

    @rule(name=names)
    def remove(self, name):
        self.repo.remove_role(name)

    @rule(name=names, flag=st.booleans())
    def reserve(self, name, flag):
        self.repo.set_reserve(name, flag)

    @rule(name=names)
    def stage(self, name):
        targets = [r for r in self.repo.roles if r.name == name and r.role_type is RoleType.TARGET]
        assert self.repo.stage_update(name) == len(targets)
        assert all(role.pending for role in targets)

    @rule()
    def tick(self):
        self.repo.publish_timestamp()

    @invariant()
    def only_targets_leave_pending(self):
        # rollover_check arms the key rollover of the other roles through
        # it, and staging marks Targets only, so nothing may clear them
        for role in self.repo.roles:
            assert role.pending is True or role.role_type is RoleType.TARGET

    @invariant()
    def lists_match_the_roles(self):
        assert_indexed(self.repo)

    @invariant()
    def missing_types_are_those_no_role_has(self):
        present = {role.role_type for role in self.repo.roles}
        assert self.repo.missing_role_types() == [t for t in RoleType if t not in present]

    @invariant()
    def check(self):
        for role in self.repo.roles:
            assert 0 <= role.lifetime_sigs - role.key_start <= role.algorithm.max_sigs
            assert role.key_start >= 0
        totals = self.repo.ledger_totals()
        # conservation: the signature total moves exactly with the current
        # roles' lifetime counts, so a removal leaves it where it was
        baseline = {id(role): n for role, n in self.prev_lifetimes}
        assert totals.signatures - self.prev.signatures == sum(
            role.lifetime_sigs - baseline.get(id(role), 0) for role in self.repo.roles
        )
        self.prev_lifetimes = [(role, role.lifetime_sigs) for role in self.repo.roles]
        assert totals.sig_bytes >= self.prev.sig_bytes
        assert totals.pk_bytes >= self.prev.pk_bytes
        assert totals.cost >= self.prev.cost
        assert totals.signatures >= self.prev.signatures
        assert totals.rollover_events >= self.prev.rollover_events
        assert totals.root_publications >= self.prev.root_publications
        self.prev = totals


TestRepositoryMachine = RepositoryMachine.TestCase
TestRepositoryMachine.settings = settings(max_examples=40, stateful_step_count=40)
