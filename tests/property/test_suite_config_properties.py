"""Property tests: suite configs round-trip and expand deterministically.

Two contracts from :mod:`repro.scenarios.config`:

- any well-formed :class:`SuiteConfig` survives YAML -> dataclass ->
  YAML unchanged (both the object and its canonical YAML text are fixed
  points), so a committed suite file is a faithful, diffable record of
  the matrix it runs;
- grid expansion is a pure function of (suite file, seed): scenario
  order, ids and derived seeds never depend on anything else.
"""

from hypothesis import given, strategies as st

from repro.scenarios import (
    BACKEND_NAMES,
    CHANNEL_MODES,
    THREADING_STYLES,
    FaultSpec,
    GridConfig,
    HookSpec,
    InvariantSpec,
    PolicySpec,
    SuiteConfig,
    WorkloadSpec,
    derive_seed,
    dump_yaml,
    expand_grid,
    loads,
)

_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-_0123456789", min_size=1,
                max_size=12)
_param_key = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
                     max_size=8)
_scalar = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.booleans(),
    _name,
)
_params = st.dictionaries(_param_key, _scalar, max_size=3)

_workloads = st.builds(
    WorkloadSpec,
    name=st.sampled_from(("corba", "embedded", "three_tier", "pps", "bridge")),
    params=_params,
)
_policies = st.builds(
    PolicySpec,
    channel=st.sampled_from(CHANNEL_MODES),
    threading=st.sampled_from(THREADING_STYLES),
    pool_threads=st.integers(min_value=1, max_value=8),
)
_faults = st.builds(
    FaultSpec,
    name=_name,
    rates=st.dictionaries(
        st.sampled_from(("drop", "duplicate", "reorder", "reset", "delay")),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=3,
    ),
    record_loss_rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    collect_fail_attempts=st.integers(min_value=0, max_value=4),
    crash_calls=st.dictionaries(
        _name, st.integers(min_value=1, max_value=9), max_size=2
    ),
    delay_ns=st.integers(min_value=0, max_value=10**9),
)
_hooks = st.builds(
    HookSpec,
    kind=st.just("windowed_delay"),
    params=st.fixed_dictionaries(
        {"scope": _name}, optional={"width": st.integers(1, 16)}
    ),
    when_faults=st.one_of(st.none(), st.tuples(_name)),
)
_invariants = st.builds(
    InvariantSpec,
    name=st.sampled_from(("loss_accounting", "latency_slo",
                          "streaming_batch_equivalence")),
    params=st.one_of(
        st.just({}), st.fixed_dictionaries({"max_p95_ms": st.floats(0.1, 1e6)})
    ),
)
def _grid_is_expandable(grid):
    """Expansion rejects unsupported workload x policy cells (e.g.
    embedded under mux/per-connection) — keep generated grids legal."""
    from repro.scenarios import UNSUPPORTED_POLICIES

    return not any(
        (policy.channel, policy.threading) in UNSUPPORTED_POLICIES.get(w.name, ())
        for w in grid.workloads
        for policy in grid.policies
    )


_grids = st.builds(
    GridConfig,
    name=_name,
    workloads=st.lists(_workloads, min_size=1, max_size=3).map(tuple),
    backends=st.lists(
        st.sampled_from(BACKEND_NAMES), min_size=1, max_size=2, unique=True
    ).map(tuple),
    policies=st.lists(_policies, min_size=1, max_size=2).map(tuple),
    faults=st.lists(_faults, max_size=2, unique_by=lambda f: f.name).map(tuple),
    hooks=st.lists(_hooks, max_size=2).map(tuple),
    invariants=st.lists(
        _invariants, max_size=2, unique_by=lambda i: i.name
    ).map(tuple),
).filter(_grid_is_expandable)
_suites = st.builds(
    SuiteConfig,
    name=_name,
    description=st.text(max_size=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    grids=st.lists(
        _grids, min_size=1, max_size=3, unique_by=lambda g: g.name
    ).map(tuple),
)
@given(config=_suites)
def test_yaml_round_trip_is_identity(config):
    text = dump_yaml(config)
    reloaded = loads(text)
    assert reloaded == config
    # The canonical YAML text is itself a fixed point: dumping the
    # reloaded config reproduces the bytes, so suite files never churn.
    assert dump_yaml(reloaded) == text
@given(config=_suites)
def test_to_dict_round_trip_is_identity(config):
    assert SuiteConfig.from_dict(config.to_dict()) == config
@given(config=_suites)
def test_expansion_is_order_deterministic(config):
    first = expand_grid(config)
    second = expand_grid(loads(dump_yaml(config)))
    assert [s.scenario_id for s in first] == [s.scenario_id for s in second]
    assert [s.seed for s in first] == [s.seed for s in second]
    assert [s.index for s in first] == list(range(len(first)))
    # Grids appear in file order, and within a grid the workload axis
    # varies slowest — positional, never alphabetical.
    grid_order = [g.name for g in config.grids]
    seen = [s.grid for s in first]
    assert sorted(range(len(seen)), key=lambda i: grid_order.index(seen[i])) == list(
        range(len(seen))
    )
@given(config=_suites, other_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_seed_override_changes_only_seeds(config, other_seed):
    base = expand_grid(config)
    overridden = expand_grid(config, seed=other_seed)
    assert [s.scenario_id for s in base] == [s.scenario_id for s in overridden]
    expected = [derive_seed(other_seed, i) for i in range(len(base))]
    assert [s.seed for s in overridden] == expected
