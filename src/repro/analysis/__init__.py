"""repro.analysis subpackage: workload characterization and run diffs."""
