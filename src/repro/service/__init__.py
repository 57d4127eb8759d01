"""The measurement service: an HTTP layer over the campaign backend.

The paper's system is meant to be *queried by customers*, not run by hand —
providers emit receipts, users check SLA compliance against them.  This
package turns the headless backend (:class:`~repro.engine.campaign.CampaignRunner`,
the durable :class:`~repro.store.RunStore`, :class:`~repro.api.spec.ExecutionPolicy`)
into a system users hit:

* :class:`~repro.service.app.ServiceApp` — a stdlib-only WSGI API (submit a
  campaign as JSON, poll per-interval progress with a ``?since=`` cursor or a
  long-poll, query reports/verdicts, list/filter/compare runs) plus the
  single-file browser dashboard at ``/``.
* :class:`~repro.service.jobs.JobQueue` — bounded-concurrency workers driving
  each campaign attempt as one ``repro resume`` (or ``repro dispatch``) child
  process (kill-safe: a child killed mid-interval is re-dispatched and the
  finished store stays byte-identical).
* :class:`~repro.service.index.RunIndex` — the cached multi-run scan over a
  store root that the API and ``repro list`` share.
* :func:`~repro.service.report.run_report` — the machine-readable report
  serialization shared by ``repro report --json``, the API, and the dashboard.
"""

from repro.service.app import ServiceApp, make_service_server, serve
from repro.service.errors import HTTPError
from repro.service.index import RunEntry, RunIndex, validate_run_id
from repro.service.jobs import Job, JobQueue, JobRejected
from repro.service.report import REPORT_VERSION, compare_runs, run_report

__all__ = [
    "HTTPError",
    "Job",
    "JobQueue",
    "JobRejected",
    "REPORT_VERSION",
    "RunEntry",
    "RunIndex",
    "ServiceApp",
    "compare_runs",
    "make_service_server",
    "run_report",
    "serve",
    "validate_run_id",
]
