"""Bench: campaign-service caching — cache-served rerun of a sweep.

The pytest benchmark (run via ``pytest benchmarks/``) drives a sweep
through :class:`~repro.serve.CampaignService` twice in process and
times the warm (100% cache-hit) pass.  That pass is pure key
derivation + store lookups, so it bounds the service's per-query
overhead for a fully warmed campaign.  CI's ``campaign-service-smoke``
job checks the same cache behaviour over HTTP.
"""

import pytest

REQUEST = {"kind": "sweep", "workload": "gzip", "budget": 6000,
           "axes": {"rob_entries": [8, 16, 32, 64], "width": [2, 4]}}


@pytest.fixture(scope="module")
def warmed_service(tmp_path_factory):
    from repro.serve import CampaignService
    service = CampaignService(tmp_path_factory.mktemp("campaign"))
    job, _ = service.submit(REQUEST)
    service.manager.wait(job.job_id, timeout=600)
    assert job.state == "done"
    yield service, job
    service.close()


def test_cache_served_resubmission(warmed_service, benchmark):
    """A warmed campaign answers a duplicate sweep without running
    one simulation; the benchmark times that fully cache-served
    pass."""
    service, cold_job = warmed_service

    def resubmit():
        job, _ = service.submit(REQUEST)
        service.manager.wait(job.job_id, timeout=600)
        return job

    warm_job = benchmark(resubmit)
    assert warm_job.state == "done"
    assert warm_job.cache_misses == 0
    assert warm_job.cache_hits == len(
        service.manager.result_document(
            warm_job.job_id)["sweep"]["outcomes"])
    assert service.manager.result_document(warm_job.job_id) \
        == service.manager.result_document(cold_job.job_id)
