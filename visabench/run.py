#!/usr/bin/env python3
"""Build visa-bench from this checkout, run one workload, print the result.

    python3 visabench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
simulator libraries (src/) and visa-bench (visabench/) under .bench_build/;
later runs only check that the build is current. Each run's full report
(and, with --trace 1, its Chrome trace) is kept in .bench_build/results/,
where `visa-bench --compare` can read it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics named in
BENCHMARK.json with --trace 0, the per_layer ones with --trace 1. The exit
code is 0 only when the run's outputs were correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD = '.bench_build'


def build():
    """Configure (once) and build visa-bench; return its path or None."""
    tree = os.path.join(BUILD, 'visabench')
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD, 'tmp'))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, 'build.log'), 'a') as log:
        def step(cmd):
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=env).returncode == 0

        if not os.path.exists(os.path.join(tree, 'CMakeCache.txt')):
            generator = ['-G', 'Ninja'] if shutil.which('ninja') else []
            if not step(['cmake', '-S', 'visabench', '-B', tree,
                         '-DCMAKE_BUILD_TYPE=Release'] + generator):
                shutil.rmtree(tree, ignore_errors=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        if not step(['cmake', '--build', tree, '--target', 'visa-bench',
                     '-j', jobs]):
            return None
    return os.path.join(tree, 'visa-bench')


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=int, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join('src', 'CMakeLists.txt')):
        print('run.py: no simulator sources (src/) here; run it from the '
              'repository root', file=sys.stderr)
        return 1
    with open('BENCHMARK.json') as f:
        spec = json.load(f)

    binary = build()
    if binary is None:
        print('run.py: build failed, see %s/build.log' % BUILD,
              file=sys.stderr)
        return 1

    results = os.path.join(BUILD, 'results')
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, '%s-seed%d%s' % (
        args.workload, args.seed, '-trace' if args.trace else ''))
    cmd = [binary, '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '-o', stem + '.json']
    if args.trace:
        cmd += ['--trace', stem + '.trace.json']
    if os.path.exists(stem + '.json'):
        os.remove(stem + '.json')
    # visa-bench prints its summary to stderr; stdout carries one line.
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=170)
    except subprocess.TimeoutExpired:
        print('run.py: visa-bench timed out', file=sys.stderr)
        return 1
    if done.returncode not in (0, 1) or not os.path.exists(stem + '.json'):
        return 1
    with open(stem + '.json') as f:
        report = json.load(f)

    metrics = {}
    for m in spec['per_layer' if args.trace else 'end_to_end']:
        got = report['metrics'].get(m['name'])
        if got is None or got['value'] is None or got['unit'] != m['unit']:
            print('run.py: visa-bench reported no %s in %s' % (
                m['name'], m['unit']), file=sys.stderr)
            return 1
        metrics[m['name']] = {'value': got['value'], 'unit': got['unit']}
    print(json.dumps({'correct': report['ok'],
                      'attempted': report['attempted'],
                      'failed': report['failed'],
                      'metrics': metrics}))
    return 0 if report['ok'] else 1


if __name__ == '__main__':
    sys.exit(main())
