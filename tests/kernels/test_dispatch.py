"""Backend registry: selection order, partial merge, and failure modes."""

import numpy as np
import pytest

from repro.kernels import dispatch
from repro.kernels.dispatch import (
    ENV_VAR,
    KERNEL_NAMES,
    KernelBackend,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backend_names,
    set_backend,
    use_backend,
)
from repro.kernels.ops import within_ball_mask


@pytest.fixture(autouse=True)
def _clean_registry_state(monkeypatch):
    """Restore override/env and drop any backends a test registers."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    before = set(dispatch._FACTORIES)
    saved_override = dispatch._OVERRIDE
    yield
    dispatch._OVERRIDE = saved_override
    for name in set(dispatch._FACTORIES) - before:
        dispatch._FACTORIES.pop(name, None)
        dispatch._INSTANCES.pop(name, None)


class TestSelectionOrder:
    def test_default_is_numpy(self):
        assert default_backend_name() == "numpy"

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert default_backend_name() == "reference"
        assert get_backend().name == "reference"

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        set_backend("reference")
        try:
            assert default_backend_name() == "reference"
        finally:
            set_backend(None)
        assert default_backend_name() == "numpy"

    def test_set_backend_fails_fast_on_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("no-such-backend")
        assert default_backend_name() == "numpy"

    def test_use_backend_restores_on_exit(self):
        with use_backend("reference") as backend:
            assert backend.name == "reference"
            assert default_backend_name() == "reference"
        assert default_backend_name() == "numpy"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                raise RuntimeError("boom")
        assert default_backend_name() == "numpy"

    def test_explicit_argument_wins_over_override(self):
        pts = np.array([[0.5, 0.0]])
        with use_backend("reference"):
            # An explicit backend instance bypasses the override entirely.
            got = within_ball_mask(pts, np.zeros(2), 1.0, backend="numpy")
        assert got.tolist() == [True]


class TestRegistry:
    def test_builtins_registered(self):
        assert registered_backend_names() == ("numpy", "reference")

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(ValueError, match="registered:"):
            get_backend("definitely-not-a-backend")

    def test_unknown_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            KernelBackend("bad", {"not_a_kernel": lambda: None})

    def test_partial_backend_merged_over_numpy(self):
        calls = []

        def fake_mask(points, center, radius):
            calls.append("fake")
            return np.ones(len(points), dtype=bool)

        register_backend(
            "partial-test",
            lambda: KernelBackend("partial-test", {"within_ball_mask": fake_mask}),
        )
        backend = get_backend("partial-test")
        assert set(backend.kernels) == set(KERNEL_NAMES)
        pts = np.array([[100.0, 100.0]])
        assert within_ball_mask(pts, np.zeros(2), 0.1, backend="partial-test").all()
        assert calls == ["fake"]

    def test_import_failure_raises_actionable_message(self):
        def broken():
            raise ImportError("no module named 'accelerator'")

        register_backend("broken-test", broken)
        with pytest.raises(ImportError, match=ENV_VAR):
            get_backend("broken-test")

    def test_instances_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_backend_instance_passes_through(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend

