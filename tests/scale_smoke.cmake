# Run bench_scale's --json mode at a small per-pod trace and validate
# the emitted BENCH_scale.json schema (ctest `scale_smoke`, label
# `scale`). Unlike perf_smoke there is no tolerance gate yet: the
# committed BENCH_scale.json is the first recorded baseline, so this
# check pins the schema and the deterministic fields' sanity only.
execute_process(COMMAND ${BENCH} --json=${OUT} --requests=40
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_scale --json failed (rc=${rc})")
endif()
execute_process(
    COMMAND ${PYTHON} -c "
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc['bench'] == 'scale', doc
assert doc['schema_version'] == 4, doc
assert doc['build'] in ('optimized', 'debug'), doc
assert doc['hw_threads'] >= 1, doc
sweep = doc['sweep']
# Three uniform-fabric sizes plus the 8-node oversubscribed-spine cell.
assert [w['gpus'] for w in sweep] == [8, 64, 512, 64], sweep
assert [w['spine_oversub'] for w in sweep] == [1.0, 1.0, 1.0, 4.0], sweep
for w in sweep:
    for field in ('num_nodes', 'pods_per_node', 'pods', 'requests',
                  'events', 'wall_s', 'events_per_sec', 'finished',
                  'unfinished', 'mean_ttft_s', 'p99_ttft_s', 'mean_tpot_s',
                  'slo_attainment', 'makespan_s', 'dispatches',
                  'cross_offloads', 'cross_redispatches', 'audit_events',
                  'checksum', 'spine_oversub'):
        assert field in w, (w['gpus'], field)
    assert w['gpus'] == w['pods'] * 4, w
    assert w['pods'] == w['num_nodes'] * w['pods_per_node'], w
    assert w['events'] > 0 and w['wall_s'] > 0, w
    assert w['finished'] + w['unfinished'] == w['requests'], w
    assert w['finished'] > 0 and w['dispatches'] >= 0, w
    assert 0.0 <= w['slo_attainment'] <= 1.0, w
    # ROADMAP item-1 remnant, fixed: the headline watermarks must make
    # the cross-pod offload path fire at the 64- and 512-GPU cells
    # (2-pod cells fluctuate too coherently to diverge, so gpus=8 may
    # legitimately stay at 0).
    if w['gpus'] >= 64:
        assert w['cross_offloads'] > 0, ('no cross-pod offloads', w)
print('BENCH_scale.json schema OK:',
      ', '.join('%d GPUs' % w['gpus'] for w in sweep))
" ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "emitted scale JSON failed validation: ${OUT}")
endif()
