"""Randomized unit design: section draws, rendering, serialization."""
import json
import os
import subprocess
import sys
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

import capricep
from capricep.allpass import CascadeResponse
from capricep.analyzer import CompressedSignals, DecompositionResult
from capricep.design import (
    MAX_SYNTHESIS_FFT,
    DesignParams,
    composite_unit,
    derive_seed,
    derive_unit_designs,
    design_to_json,
    draw_sections,
    first_order_count,
    generate_ensemble,
    generate_unit,
    raised_cosine_short_params,
)
from capricep.errors import DesignError
from capricep.simulator import VirtualSystem


def test_nominal_duration_scales_inversely_with_density():
    p = DesignParams(fs=44100.0, fd=40.0, seed=0)
    assert p.nominal_t_erd() == pytest.approx(1.736 / 40.0)


def test_generation_is_deterministic():
    p = DesignParams(fs=16000.0, fd=100.0, seed=123)
    a = generate_unit(p)
    b = generate_unit(p)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.sections, b.sections)


def test_different_seeds_differ():
    p1 = DesignParams(fs=16000.0, fd=100.0, seed=1)
    p2 = DesignParams(fs=16000.0, fd=100.0, seed=2)
    assert not np.array_equal(generate_unit(p1).samples, generate_unit(p2).samples)


def test_mean_center_spacing_equals_density_interval():
    p = DesignParams(fs=44100.0, fd=10.0, seed=7)
    centers = np.array([s.center_freq_hz for s in draw_sections(p)])
    spacing = np.diff(np.concatenate([[0.0], centers]))
    assert np.mean(spacing) == pytest.approx(10.0, rel=0.03)
    assert centers[-1] < 44100.0 / 2


def test_bandwidths_all_equal_cmag_times_density():
    p = DesignParams(fs=16000.0, fd=50.0, seed=3)
    for s in draw_sections(p):
        assert s.bandwidth_hz == pytest.approx(p.cmag * 50.0)


def test_signs_are_mixed():
    p = DesignParams(fs=44100.0, fd=40.0, seed=5)
    signs = [s.time_sign for s in draw_sections(p)]
    assert set(signs) == {1, -1}


def test_first_order_count_is_twice_the_pair_count():
    p = DesignParams(fs=16000.0, fd=100.0, seed=9)
    sections = draw_sections(p)
    assert first_order_count(sections) == 2 * len(sections)
    doc = json.loads(design_to_json(generate_unit(p)))
    assert doc["first_order_count"] == 2 * len(sections)


def test_truncated_unit_keeps_almost_all_energy():
    p = DesignParams(fs=16000.0, fd=50.0, seed=11)
    u = generate_unit(p)
    assert len(u.samples) == round(p.truncation_factor * u.t_erd_s * 16000.0)
    assert abs(u.energy - 1.0) < 0.01
    assert u.center_index == len(u.samples) // 2


def test_duration_override():
    p = DesignParams(fs=16000.0, fd=100.0, seed=2)
    u = generate_unit(p, t_erd_s=0.03)
    assert u.t_erd_s == 0.03
    assert len(u.samples) == round(4.0 * 0.03 * 16000.0)


def test_composite_concatenates_both_cascades():
    fs = 16000.0
    long_p = DesignParams(fs=fs, fd=100.0, seed=4)
    short_p = raised_cosine_short_params(fs, seed=99)
    u = composite_unit(short_p, long_p, 1.736 / 100.0)
    n_long = len(draw_sections(long_p))
    n_short = len(draw_sections(short_p))
    assert len(u.sections) == n_long + n_short
    assert abs(u.energy - 1.0) < 0.01
    with pytest.raises(DesignError, match="share fs"):
        composite_unit(raised_cosine_short_params(44100.0, seed=99), long_p)


def test_ensemble_units_are_independent_and_reproducible():
    p = DesignParams(fs=16000.0, fd=100.0, seed=21)
    ens = generate_ensemble(p, p.nominal_t_erd(), 4)
    assert len(ens) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(ens[i].samples, ens[j].samples)
    again = generate_ensemble(p, p.nominal_t_erd(), 4)
    assert all(np.array_equal(a.samples, b.samples) for a, b in zip(ens, again))


def test_ensemble_units_use_the_derived_designs():
    p = DesignParams(fs=16000.0, fd=100.0, seed=21)
    designs = derive_unit_designs(p, 3)
    ens = generate_ensemble(p, p.nominal_t_erd(), 3)
    assert [u.design for u in ens] == designs
    assert designs[0].seed == derive_seed(21, 0).generate_state(1)[0]
    assert derive_unit_designs(p) == derive_unit_designs(p, 4)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(5, 0).generate_state(1)[0]
    b = derive_seed(5, 1).generate_state(1)[0]
    assert a == derive_seed(5, 0).generate_state(1)[0]
    assert a != b


def test_params_roundtrip_and_json():
    p = DesignParams(fs=48000.0, fd=25.0, alpha=4.0, beta=6.0,
                     cmag=1.3, seed=77, truncation_factor=5.0)
    assert DesignParams.from_dict(p.to_dict()) == p
    u = generate_unit(DesignParams(fs=8000.0, fd=200.0, seed=1))
    doc = json.loads(design_to_json(u, include_sections=True))
    assert doc["first_order_count"] == first_order_count(u.sections)
    assert len(doc["sections"]) == len(u.sections)


def test_density_above_nyquist_rejected():
    with pytest.raises(DesignError):
        draw_sections(DesignParams(fs=8000.0, fd=4000.0, seed=0))


@pytest.mark.parametrize("kw", [
    dict(fs=-1.0, fd=40.0),
    dict(fs=8000.0, fd=0.0),
    dict(fs=8000.0, fd=40.0, alpha=0.0),
    dict(fs=8000.0, fd=40.0, cmag=-0.1),
    dict(fs=8000.0, fd=40.0, truncation_factor=0.0),
])
def test_invalid_params_rejected(kw):
    with pytest.raises(DesignError):
        DesignParams(seed=0, **kw).validate()


@pytest.mark.parametrize("field", ["fs", "fd", "alpha", "beta", "cmag", "truncation_factor"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_params_rejected(field, value):
    params = DesignParams(fs=8000.0, fd=40.0, seed=0)
    with pytest.raises(DesignError, match="must be finite"):
        replace(params, **{field: value}).validate()


def test_oversized_synthesis_grid_rejected_before_drawing(monkeypatch):
    """A unit longer than the synthesis cap fails before any section is
    drawn: fd 0.01 Hz at 44.1 kHz would need a 2**26-point grid and
    about 68 GB of kernel blocks."""
    def no_draw(params):
        raise AssertionError("sections drawn before the size check")
    monkeypatch.setattr("capricep.design.draw_sections", no_draw)
    with pytest.raises(DesignError, match="synthesis grid"):
        generate_unit(DesignParams(fs=44100.0, fd=0.01, seed=0))
    # One sample past the cap's kept window: n_keep = MAX_SYNTHESIS_FFT / 2 + 1.
    p = DesignParams(fs=8000.0, fd=250.0, seed=0, truncation_factor=1.0)
    with pytest.raises(DesignError, match="synthesis grid"):
        generate_unit(p, (MAX_SYNTHESIS_FFT // 2 + 1) / p.fs)
    with pytest.raises(DesignError, match="synthesis grid"):
        composite_unit(raised_cosine_short_params(44100.0, 1),
                       DesignParams(fs=44100.0, fd=0.01, seed=0))


def test_t_erd_too_large_to_round_is_a_design_error():
    """n_keep = 4 * 1e308 * 8000 overflows to inf, which int(round()) cannot take."""
    with pytest.raises(DesignError, match="synthesis grid"):
        generate_unit(DesignParams(fs=8000.0, fd=250.0), 1e308)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(seed):
    with pytest.raises(DesignError, match="seed"):
        DesignParams(fs=8000.0, fd=250.0, seed=seed).validate()
    with pytest.raises(DesignError, match="seed"):
        derive_seed(seed, 0)
    with pytest.raises(DesignError, match="seed"):
        derive_unit_designs(DesignParams(fs=8000.0, fd=250.0, seed=seed), 2)


def test_beta_draws_that_underflow_to_zero_end_in_a_design_error():
    """alpha = 1e-300 makes every interval 0, so the draws never reach
    Nyquist; this must fail within the cap, not loop forever."""
    code = ("from capricep.design import DesignParams, draw_sections\n"
            "from capricep.errors import DesignError\n"
            "try:\n"
            "    draw_sections(DesignParams(fs=44100.0, fd=40.0, alpha=1e-300))\n"
            "except DesignError as exc:\n"
            "    print(exc)\n")
    path = [str(Path(capricep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "alpha or beta too small" in proc.stdout


# One factory per frozen dataclass that holds an ndarray.
_ARRAY_RECORDS = {
    "UnitCapricep": lambda: generate_unit(DesignParams(fs=8000.0, fd=250.0, seed=5)),
    "CascadeResponse": lambda: CascadeResponse(phase_half=np.zeros(3)),
    "CompressedSignals": lambda: CompressedSignals(q=[np.zeros(3)], alignment=0),
    "DecompositionResult": lambda: DecompositionResult(
        np.zeros(3), np.zeros(3), np.zeros(3), {"freq_hz": np.zeros(2)}, 0, 1, False),
    "VirtualSystem": lambda: VirtualSystem(lti_ir=np.array([1.0, 0.5])),
    "AugmentReport": lambda: capricep.AugmentReport(*(np.zeros(3) for _ in range(5))),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RECORDS))
def test_array_records_compare_by_identity_without_raising(name):
    """A generated __eq__ would compare the arrays inside a tuple and
    raise numpy's ambiguous-truth-value error."""
    a, b = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
    assert a == a
    assert not a == b
    assert a != b
    assert len({a, b}) == 2
