"""Run one jetmod CLI command as a traced job.

    python perfbench/launch.py STATS_FILE JOB_NAME <jetmod cli arguments...>

Installs the tracer, calls ``jetmod.cli.main`` with the arguments as one
job, writes the tracer's export to STATS_FILE and exits with main's code.
"""

import json
import os
import sys
import traceback


def main():
    stats_file, job_name, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer as tracing

    tracer = tracing.Tracer().install()
    import jetmod.cli

    run = tracer.run_job(job_name, lambda: jetmod.cli.main(cli_args))
    tracer.uninstall()
    tracer.record_job(job_name, run["error"] is None, run)
    with open(stats_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    if run["error"] is not None:
        traceback.print_exception(run["error"])
        return 1
    return run["result"]


if __name__ == "__main__":
    sys.exit(main())
