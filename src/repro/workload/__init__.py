"""Flow-size distributions — the last resident of the first workload package.

Everything that turns an offered load into transport activity lives in
:mod:`repro.traffic`.  :mod:`repro.workload.flowsize` (the Internet-core
request-size CDF of §7.1) keeps this path only because
``benchmarks/perfbench/drives.py`` imports
``repro.workload.flowsize.internet_core_cdf`` and the PR that folded the
rest of this package away could not touch the benchmark's directory.  The
next PR that may edit ``benchmarks/perfbench/`` should move ``flowsize.py``
to ``repro/traffic/`` and delete this package; import nothing else from here.
"""
