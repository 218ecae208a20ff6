"""Checkpoint one run per scheme, policy and option; print each file's SHA-256.

    PYTHONPATH=TREE/src python checkpoint_digests.py OUTDIR > digests.txt

Run it once per tree (parent and change) and ``diff`` the two outputs:
every checkpoint file must be byte-identical.  Thirteen quarter-scale
points, 24,000 accesses each, seed 5, a checkpoint every 6,000 accesses
(four files per point): all seven schemes, all four replacement
policies, the TSB, DIP, ``tlb_prefetch``, a native machine and
five-level paging.
"""
import hashlib, sys
from pathlib import Path
from repro.core.schemes import Scheme
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.workloads.mixes import make_mix

CONFIGS = [
    ("gups", dict(scheme=Scheme.CONVENTIONAL)),
    ("gups", dict(scheme=Scheme.POM_TLB)),
    ("ccomp", dict(scheme=Scheme.CSALT_D)),
    ("ccomp", dict(scheme=Scheme.CSALT_CD)),
    ("can_ccomp", dict(scheme=Scheme.CSALT_STATIC)),
    ("ccomp", dict(scheme=Scheme.TSB)),
    ("can_stream", dict(scheme=Scheme.DIP, replacement="rrip")),
    ("canneal", dict(scheme=Scheme.CSALT_CD, replacement="nru")),
    ("canneal", dict(scheme=Scheme.CSALT_CD, replacement="plru", contexts_per_core=4)),
    ("gups", dict(scheme=Scheme.CSALT_CD, replacement="rrip")),
    ("can_stream", dict(scheme=Scheme.POM_TLB, replacement="nru", tlb_prefetch=True)),
    ("ccomp", dict(scheme=Scheme.CONVENTIONAL, virtualized=False)),
    ("ccomp", dict(scheme=Scheme.CSALT_CD, page_table_levels=5)),
]
out = Path(sys.argv[1])
for index, (mix, overrides) in enumerate(CONFIGS):
    config = small_config(**overrides)
    directory = out / f"{index:02d}"
    run_simulation(config, make_mix(mix, config.num_vms, scale=0.25),
                   total_accesses=24_000, seed=5, checkpoint_every=6_000,
                   checkpoint_dir=directory, checkpoint_keep=10)
    for path in sorted(directory.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(index, mix, sorted((k, str(v)) for k, v in overrides.items()), path.name, digest, flush=True)
