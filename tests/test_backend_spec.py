"""Tests for the unified :class:`BackendSpec` configuration surface.

Pins down the api_redesign guarantees:

* one spec value describes every backend — validation happens at
  construction, an address names (and wins over) its transport, and the
  accept-only ``workers=0`` form is legal only where it means something;
* the CLI round-trip is exact: ``to_args`` emits an argv fragment that
  parses back (through the shared ``add_arguments`` flags) to an equal
  spec, for *any* valid spec (property-based), and pickling a spec is
  the identity;
* ``from_args`` resolves the worker count through the documented
  fallback chain (``--gen-workers`` → explicit override → ``workers``
  attribute → dataclass default);
* the spec is the only backend configuration surface: the retired
  ``async`` kind is rejected, and ``make_backend`` dispatches on
  ``kind`` alone.
"""

from __future__ import annotations

import argparse
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.model import TransparentLLM
from repro.runtime.service import (
    GEN_BACKENDS,
    PIPE_TRANSPORT,
    PROCESS,
    SIMULATOR,
    TCP_TRANSPORT,
    TRANSPORTS,
    UNIX_TRANSPORT,
    BackendSpec,
    GenerationService,
    SimulatorBackend,
)

def parse(argv: "list[str]", defaults: "BackendSpec | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    BackendSpec.add_arguments(parser, defaults=defaults)
    return parser.parse_args(argv)


# -- validation ---------------------------------------------------------------


def test_defaults_are_a_valid_simulator_spec():
    spec = BackendSpec()
    assert spec.kind == SIMULATOR
    assert spec.transport == PIPE_TRANSPORT
    assert spec.workers >= 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "llama.cpp"},
        {"transport": "carrier-pigeon"},
        {"address": "ipx:whatever"},
        {"workers": 0},  # accept-only needs process + socket
        {"kind": PROCESS, "workers": 0},  # pipe transport still spawns
        {"kind": PROCESS, "transport": UNIX_TRANSPORT, "workers": -1},
        {"kind": "async"},  # the retired in-process microbatcher
        {"address": ""},
        {"request_timeout_s": float("nan")},
        {"max_restarts": -1},
        {"request_timeout_s": 0.0},
        {"request_timeout_s": -1.5},
        {"fleet_token": ""},
    ],
)
def test_invalid_specs_fail_at_construction(kwargs):
    with pytest.raises(ValueError):
        BackendSpec(**kwargs)


def test_accept_only_socket_supervisor_is_legal():
    spec = BackendSpec(kind=PROCESS, transport=UNIX_TRANSPORT, workers=0)
    assert spec.workers == 0


def test_address_names_and_wins_over_the_transport():
    spec = BackendSpec(kind=PROCESS, address="tcp:127.0.0.1:7431")
    assert spec.transport == TCP_TRANSPORT
    unix = BackendSpec(
        kind=PROCESS, transport=TCP_TRANSPORT, address="unix:/tmp/sup.sock"
    )
    assert unix.transport == UNIX_TRANSPORT


def test_worker_log_dir_coerces_to_str(tmp_path):
    spec = BackendSpec(worker_log_dir=tmp_path)
    assert spec.worker_log_dir == str(tmp_path)


# -- round-trips --------------------------------------------------------------

addresses = st.one_of(
    st.none(),
    st.just("unix:/tmp/repro-sup/supervisor.sock"),
    st.just("tcp:127.0.0.1:7431"),
    st.just("tcp:0.0.0.0:9000"),
)


@st.composite
def specs(draw) -> BackendSpec:
    kind = draw(st.sampled_from(GEN_BACKENDS))
    transport = draw(st.sampled_from(TRANSPORTS)) if kind == PROCESS else PIPE_TRANSPORT
    address = draw(addresses) if kind == PROCESS else None
    accept_only = kind == PROCESS and (
        transport != PIPE_TRANSPORT or (address is not None)
    )
    return BackendSpec(
        kind=kind,
        workers=draw(st.integers(0 if accept_only else 1, 8)),
        max_restarts=draw(st.one_of(st.none(), st.integers(0, 9))),
        worker_log_dir=draw(st.one_of(st.none(), st.just("out/worker-logs"))),
        transport=transport,
        address=address,
        request_timeout_s=draw(st.sampled_from([None, 0.05, 0.5, 30.0])),
        fleet_token=draw(st.one_of(st.none(), st.just("s3cret"))),
    )


@given(spec=specs())
@settings(max_examples=150, deadline=None)
def test_cli_round_trip_is_exact(spec):
    """to_args → add_arguments/parse → from_args reproduces any spec."""
    assert BackendSpec.from_args(parse(spec.to_args())) == spec


@given(spec=specs())
@settings(max_examples=50, deadline=None)
def test_pickle_round_trip_is_exact(spec):
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_from_args_worker_fallback_chain():
    # --gen-workers wins outright.
    args = parse(["--gen-workers", "7"])
    args.workers = 3
    assert BackendSpec.from_args(args, workers=5).workers == 7
    # Then the explicit override a CLI passes.
    args = parse([])
    args.workers = 3
    assert BackendSpec.from_args(args, workers=5).workers == 5
    # Then the namespace's own workers attribute.
    assert BackendSpec.from_args(args).workers == 3
    # Then the dataclass default.
    assert BackendSpec.from_args(parse([])).workers == BackendSpec.workers


def test_add_arguments_defaults_customize_without_forking_flags():
    args = parse([], defaults=BackendSpec(kind=PROCESS, max_restarts=3))
    spec = BackendSpec.from_args(args)
    assert spec.kind == PROCESS
    assert spec.max_restarts == 3
    # Worker counts resolve through from_args' fallback chain instead
    # (CLIs pass their own --workers), so defaults=... leaves them alone.
    assert spec.workers == BackendSpec.workers


# -- construction -------------------------------------------------------------


def test_make_backend_dispatches_on_kind():
    llm = TransparentLLM(seed=11)
    assert isinstance(BackendSpec().make_backend(llm), SimulatorBackend)
    from repro.runtime.remote import ProcessBackend

    process = BackendSpec(
        kind=PROCESS, workers=1, transport=UNIX_TRANSPORT, max_restarts=3
    ).make_backend(llm)
    assert isinstance(process, ProcessBackend)
    assert process.transport == UNIX_TRANSPORT
    assert process.max_restarts == 3
    process.close()


def test_fleet_token_env_resolves_at_make_backend_not_from_args(monkeypatch):
    """$REPRO_FLEET_TOKEN is a deploy-time fallback: it must not leak
    into the spec (which round-trips through CLI args exactly), only
    into the backend it builds."""
    from repro.runtime.remote import ProcessBackend
    from repro.runtime.service import FLEET_TOKEN_ENV

    monkeypatch.setenv(FLEET_TOKEN_ENV, "env-fleet-token")
    spec = BackendSpec.from_args(parse(["--backend", PROCESS]))
    assert spec.fleet_token is None  # CLI round-trip stays env-independent
    backend = spec.make_backend(TransparentLLM(seed=11))
    try:
        assert isinstance(backend, ProcessBackend)
        assert backend.fleet_token == "env-fleet-token"
    finally:
        backend.close()
    # An explicit --fleet-token wins over the environment.
    explicit = BackendSpec.from_args(
        parse(["--backend", PROCESS, "--fleet-token", "cli-token"])
    )
    assert explicit.fleet_token == "cli-token"


def test_request_timeout_flows_into_the_process_backend():
    from repro.runtime.remote import ProcessBackend

    spec = BackendSpec.from_args(
        parse(["--backend", PROCESS, "--request-timeout-s", "0.25"])
    )
    process = spec.make_backend(TransparentLLM(seed=11))
    try:
        assert isinstance(process, ProcessBackend)
        assert process.request_timeout_s == 0.25
    finally:
        process.close()


def test_spec_build_wires_a_service():
    with BackendSpec().build(TransparentLLM(seed=11)) as service:
        assert isinstance(service, GenerationService)
        assert isinstance(service.backend, SimulatorBackend)
