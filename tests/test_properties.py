"""Property tests: config emit/parse and PSK mapping round trips."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim import harness, sigproc
from fdsim.link import SCHEMES, LinkConfig

PROPERTIES = settings(max_examples=60, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def link_configs(draw):
    n_b = draw(st.integers(1, 4))
    sps = draw(st.integers(2, 40))
    sample_rate_hz = draw(st.floats(1e5, 1e9))
    n_training = draw(st.integers(1, 20))
    span_symbols = draw(st.integers(4, 16))
    scheme = draw(st.sampled_from(SCHEMES))
    n_training_samples = (n_training + span_symbols) * sps
    orders = st.integers(1, n_training_samples)
    # None is the default order, 26, which +B must be able to identify
    if not scheme.endswith("+B") or n_training_samples >= 26:
        orders = st.one_of(st.none(), orders)
    return LinkConfig(
        n_b=n_b, mod_order=2**n_b,
        n_bits=n_b * draw(st.integers(1, 5000)),
        n_training=n_training,
        f_c_hz=draw(st.one_of(st.none(), finite)),
        sample_rate_hz=sample_rate_hz,
        channel_bandwidth_hz=draw(st.floats(0.0, sample_rate_hz, exclude_min=True)),
        signal_bandwidth_hz=sample_rate_hz / sps,
        p_ta_dbm=draw(finite), p_rb_dbm=draw(finite), scheme=scheme,
        ebn0_db=draw(st.one_of(finite, st.just(math.inf))),
        rolloff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        span_symbols=span_symbols,
        estimator_order=draw(orders),
        n_taps=2 ** draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def sweep_specs(draw):
    axis = draw(st.sampled_from(harness.AXES))
    if axis == "mod_order":
        value = st.sampled_from(sigproc.SUPPORTED_ORDERS).map(float)
    else:
        value = st.one_of(finite, st.just(math.inf), st.just(-math.inf))
    return harness.SweepSpec(
        base=draw(link_configs()), axis=axis,
        values=tuple(draw(st.lists(value, min_size=1, max_size=5))),
        schemes=tuple(draw(st.lists(st.sampled_from(SCHEMES), min_size=1,
                                    max_size=4))),
        trials_per_point=draw(st.integers(1, 10**6)),
        root_seed=draw(st.integers(0, 2**64 - 1)),
    )


@PROPERTIES
@given(sweep_specs())
def test_emitted_config_parses_back_to_the_spec(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.cfg")
        with open(path, "w") as fh:
            fh.write(harness.emit_config(spec))
        assert harness.parse_config(path) == spec


@PROPERTIES
@given(st.sampled_from(sigproc.SUPPORTED_ORDERS), st.data())
def test_psk_round_trip(m_order, data):
    n_b = int(math.log2(m_order))
    n_sym = data.draw(st.integers(0, 64))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_b * n_sym,
                                       max_size=n_b * n_sym)), dtype=np.int64)
    rx = sigproc.demodulate_psk(sigproc.modulate_psk(bits, m_order), m_order)
    assert np.array_equal(rx, bits)
