"""Campaign service: a long-running, multi-client front-end for the engine.

The ROADMAP north-star is an exploration *service*, not a CLI that owns a
process pool for the duration of one invocation.  This package provides it
with nothing beyond the stdlib:

* :mod:`repro.service.protocol` -- the JSON-lines wire format
  (:func:`encode_message`, :func:`decode_message`, :func:`job_to_wire`,
  :func:`job_from_wire`, :class:`ServiceError`, :class:`ServiceUnavailable`):
  one JSON object per line, ``jobs`` requests keyed by the same canonical
  :class:`~repro.flow.FlowSpec` dictionaries that make cache keys, records
  streamed back as they complete;
* :mod:`repro.service.server` -- :class:`CampaignService`, an ``asyncio``
  streams server that submits every request to one shared
  :class:`~repro.engine.scheduler.Scheduler` (so concurrent clients dedup
  against each other and share the warmed pool) over a concurrent-writer
  :class:`~repro.engine.cache.ResultCache` handed to it by the caller;
* :mod:`repro.service.client` -- :class:`ServiceClient` (asyncio) plus the
  synchronous :func:`run_campaign_remote` helper the CLI's ``--connect``
  path uses.

Start a server with ``sradgen --serve`` and point any number of
``sradgen --campaign ... --connect HOST:PORT`` invocations at it; each
client expands its campaign (flag overrides included) and ships the jobs.

The package root imports nothing: import each name from its defining
submodule, so a ``--connect`` client loads neither the server nor the
scheduler and evaluation stack behind it.
"""
