"""RunOptions: profiles, validation and incoherent-pair rejection."""

import pytest

from repro import RunOptions
from repro.core import AdamsBashforth, SolverSettings
from repro.core.errors import ConfigurationError


class TestProfiles:
    def test_default_is_exact_process_serial(self):
        options = RunOptions()
        assert options.relinearise_interval is None
        assert options.backend == "process"
        assert options.n_workers == 1
        assert options.lane_width is None

    def test_exact_profile_matches_default(self):
        assert RunOptions.exact() == RunOptions()

    def test_fast_profile_sets_relinearise_interval(self):
        assert RunOptions.fast().relinearise_interval == 4
        assert RunOptions.fast(relinearise_interval=8).relinearise_interval == 8

    def test_batched_profile_sets_backend_and_lane_width(self):
        options = RunOptions.batched(lane_width=16, n_workers=2)
        assert options.backend == "batched"
        assert options.lane_width == 16
        assert options.n_workers == 2

    def test_profiles_accept_common_overrides(self):
        integrator = AdamsBashforth(order=3)
        settings = SolverSettings()
        options = RunOptions.fast(integrator=integrator, settings=settings)
        assert options.integrator is integrator
        assert options.settings is settings

    def test_replace_revalidates(self):
        options = RunOptions.batched(lane_width=4)
        with pytest.raises(ConfigurationError, match="lane_width"):
            options.replace(backend="process")


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            RunOptions(backend="gpu")

    def test_lane_width_with_process_backend_rejected_naming_pair(self):
        with pytest.raises(ConfigurationError) as excinfo:
            RunOptions(lane_width=4)
        message = str(excinfo.value)
        assert "lane_width=4" in message
        assert "backend='process'" in message

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ConfigurationError, match="lane_width"):
            RunOptions(backend="batched", lane_width=0)
        with pytest.raises(ConfigurationError, match="n_workers"):
            RunOptions(n_workers=0)
        with pytest.raises(ConfigurationError, match="relinearise_interval"):
            RunOptions(relinearise_interval=0)
        with pytest.raises(ConfigurationError, match="progress"):
            RunOptions(progress="not-callable")

    def test_sweep_only_knobs_rejected_for_single_runs(self):
        for options, fragment in [
            (RunOptions(checkpoint_path="x.csv"), "checkpoint_path"),
            (RunOptions(progress=lambda *a: None), "progress"),
            (RunOptions(backend="batched"), "backend"),
            (RunOptions(n_workers=4), "n_workers"),
        ]:
            with pytest.raises(ConfigurationError, match=fragment):
                options.validate_for_single_run()

    def test_single_run_accepts_run_knobs(self):
        RunOptions.fast().validate_for_single_run()
        RunOptions(n_workers=None).validate_for_single_run()


class TestQueueBackend:
    def test_queue_profile_arms_the_cache(self):
        options = RunOptions.queue("memory://fleet")
        assert options.backend == "queue"
        assert options.store_url == "memory://fleet"
        assert options.cache == "readwrite"

    def test_queue_without_store_url_rejected(self):
        with pytest.raises(ConfigurationError, match="without store_url"):
            RunOptions(backend="queue", cache="readwrite")

    def test_store_url_and_cache_dir_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="cache_dir"):
            RunOptions(store_url="memory://fleet", cache_dir="/tmp/cache")

    def test_queue_requires_a_writable_cache(self):
        with pytest.raises(ConfigurationError, match="store writes"):
            RunOptions(backend="queue", store_url="memory://fleet", cache="read")

    def test_store_url_with_cache_off_rejected(self):
        with pytest.raises(ConfigurationError, match="cache='off'"):
            RunOptions(store_url="memory://fleet", cache="off")

    def test_queue_rejects_local_worker_pools(self):
        with pytest.raises(ConfigurationError, match="external"):
            RunOptions.queue("memory://fleet", n_workers=4)

    def test_lease_timeout_only_with_queue_and_positive(self):
        RunOptions.queue("memory://fleet", lease_timeout_s=10.0)
        with pytest.raises(ConfigurationError, match="lease_timeout_s"):
            RunOptions(lease_timeout_s=10.0)
        with pytest.raises(ConfigurationError, match="positive"):
            RunOptions.queue("memory://fleet", lease_timeout_s=0.0)

    def test_queue_and_process_share_one_execution_fingerprint(self):
        queued = RunOptions.queue("memory://fleet")
        direct = RunOptions(backend="process", cache="readwrite")
        assert queued.fingerprint() == direct.fingerprint()
