"""Scenario-generation tests."""

from hypothesis import given, strategies as st

from repro.semantics import OperandSpec, ScenarioSpec, generate_scenarios

SPEC = ScenarioSpec(
    operands={
        "base": OperandSpec("address"),
        "len": OperandSpec("length"),
        "ch": OperandSpec("char"),
        "mode": OperandSpec("fixed", lo=3),
        "extra": OperandSpec("range", lo=5, hi=9),
    }
)


def test_deterministic_for_seed():
    first = generate_scenarios(SPEC, 20, seed=7)
    second = generate_scenarios(SPEC, 20, seed=7)
    assert first == second


def test_different_seeds_differ():
    assert generate_scenarios(SPEC, 20, seed=1) != generate_scenarios(
        SPEC, 20, seed=2
    )


def test_corner_lengths_pinned():
    scenarios = generate_scenarios(SPEC, 5, seed=0)
    assert scenarios[0].inputs["len"] == 0
    assert scenarios[1].inputs["len"] == 1


def test_roles_respected():
    for scenario in generate_scenarios(SPEC, 30, seed=3):
        assert scenario.inputs["mode"] == 3
        assert 5 <= scenario.inputs["extra"] <= 9
        assert 0 <= scenario.inputs["len"] <= SPEC.max_length
        assert 0 <= scenario.inputs["ch"] <= 255
        assert scenario.inputs["base"] >= 1


def test_string_backing_memory_present():
    for scenario in generate_scenarios(SPEC, 10, seed=4):
        base = scenario.inputs["base"]
        for offset in range(SPEC.max_length):
            assert (base + offset) in scenario.memory


def test_two_addresses_never_overlap_by_default():
    spec = ScenarioSpec(
        operands={
            "a": OperandSpec("address"),
            "b": OperandSpec("address"),
            "len": OperandSpec("length"),
        }
    )
    for scenario in generate_scenarios(spec, 40, seed=5):
        a, b = scenario.inputs["a"], scenario.inputs["b"]
        assert abs(a - b) >= spec.max_length + 4


def test_overlap_allowed_when_requested():
    spec = ScenarioSpec(
        operands={
            "a": OperandSpec("address"),
            "b": OperandSpec("address"),
            "len": OperandSpec("length"),
        },
        allow_overlap=True,
    )
    scenarios = generate_scenarios(spec, 60, seed=6)
    assert any(
        abs(s.inputs["a"] - s.inputs["b"]) < spec.max_length for s in scenarios
    )


@given(st.integers(min_value=0, max_value=2**31))
def test_any_seed_works(seed):
    scenarios = generate_scenarios(SPEC, 3, seed=seed)
    assert len(scenarios) == 3

# ---------------------------------------------------------------------------
# per-trial seed contract: batch draws == sequential draws

def _streams():
    """Specs that exercise every operand role and both overlap modes."""
    from repro.semantics.randomgen import ScenarioStream

    overlap = ScenarioSpec(
        operands={
            "a": OperandSpec("address"),
            "b": OperandSpec("address"),
            "len": OperandSpec("length"),
        },
        allow_overlap=True,
    )
    return (
        ScenarioStream(SPEC, 1982),
        ScenarioStream(SPEC, 7),
        ScenarioStream(overlap, 1982),
    )


def test_batch_lanes_equal_sequential_draws():
    """Lane ``i`` of a batch is byte-for-byte scenario ``offset + i``.

    This is the contract the vectorized verifier rests on: there is no
    separate batch RNG, so the same ``(seed, trial)`` pair produces the
    same machine state whether it is drawn scalar, in a batch at offset
    0, or in the middle of some other window.
    """
    for stream in _streams():
        for offset, count in ((0, 33), (17, 16), (120, 5)):
            batch = stream.draw_batch(offset, count)
            scalar = stream.window(offset, count)
            assert batch.n == count
            for lane in range(count):
                assert batch.scenario(lane) == scalar[lane]


def test_batch_columns_are_exact_scalar_values():
    """Columnar inputs agree with the per-trial draws element-wise."""
    stream = _streams()[0]
    batch = stream.draw_batch(5, 24)
    scalar = stream.window(5, 24)
    for name in SPEC.operands:
        column = batch.inputs[name]
        assert [int(v) for v in column] == [
            s.inputs[name] for s in scalar
        ]


def test_batch_memory_rows_reconstruct_arenas():
    """The dense image holds every scenario's arena bytes in place."""
    stream = _streams()[0]
    batch = stream.draw_batch(0, 12)
    scalar = stream.window(0, 12)
    for lane in range(12):
        memory = batch.lane_memory(lane)
        for addr, value in scalar[lane].memory.items():
            assert memory[addr] == value
