(* Every metric the benchmark reports: name, unit, which direction is
   better, and which clock it reads. BENCHMARK.json lists the same names
   and units (test_perf checks that they agree). *)

type clock = Host | Simulated | Accuracy

let clock_name = function Host -> "host" | Simulated -> "simulated" | Accuracy -> "accuracy"

type entry = { name : string; unit_ : string; better : Compare.better; clock : clock }

let host name unit_ better = { name; unit_; better; clock = Host }
let sim name unit_ better = { name; unit_; better; clock = Simulated }

let end_to_end =
  Compare.
    [
      host "setup_s" "s" Lower;
      host "host_ops_per_s" "1/s" Higher;
      sim "sim_cycles_per_inf" "cycles" Lower;
      sim "sim_energy_uj_per_inf" "uJ" Lower;
      sim "sim_p50_cycles" "cycles" Lower;
      sim "sim_p99_cycles" "cycles" Lower;
      sim "sim_max_rps_at_p99" "1/s" Higher;
      { name = "output_err_mean"; unit_ = "abs"; better = Lower; clock = Accuracy };
      host "peak_rss_mb" "MB" Lower;
    ]

let per_layer =
  Compare.
    [
      host "nn.build_graph_s" "s" Lower;
      host "compiler.optimize_s" "s" Lower;
      host "compiler.tiling_s" "s" Lower;
      host "compiler.partition_s" "s" Lower;
      host "compiler.schedule_s" "s" Lower;
      host "compiler.codegen_s" "s" Lower;
      host "compiler.sequencing_s" "s" Lower;
      sim "compiler.instructions" "count" Lower;
      sim "compiler.mvm_instructions" "count" Lower;
      sim "compiler.spilled_frac" "frac" Lower;
      sim "compiler.cross_tile_edges" "count" Lower;
      sim "compiler.cross_node_edges" "count" Lower;
      sim "compiler.channels_repaired" "count" Lower;
      host "analysis.equiv_s" "s" Lower;
      host "analysis.analyze_s" "s" Lower;
      host "analysis.shards_s" "s" Lower;
      sim "analysis.equiv_steps" "count" Lower;
      sim "analysis.lb_cycles" "cycles" Lower;
      sim "analysis.sim_over_lb" "ratio" Lower;
      host "sim.create_s" "s" Lower;
      host "sim.warmup_s" "s" Lower;
      host "sim.run_ms_p50" "ms" Lower;
      host "sim.run_ms_p99" "ms" Lower;
      sim "sim.instrs_per_inf" "count" Lower;
      host "sim.host_ns_per_instr" "ns" Lower;
      host "sim.fast_frac" "frac" Higher;
      sim "sim.busy_frac" "frac" Higher;
      sim "sim.stall_smem_read_cycles_per_inf" "cycles" Lower;
      sim "sim.stall_smem_write_cycles_per_inf" "cycles" Lower;
      sim "sim.stall_recv_fifo_cycles_per_inf" "cycles" Lower;
      sim "xbar.mvm_ops_per_inf" "count" Lower;
      host "xbar.kernel_ns_per_mvm" "ns" Lower;
      host "xbar.kernel_share_est" "frac" Lower;
      sim "noc.hop_words_per_inf" "words" Lower;
      sim "fabric.link_words_per_inf" "words" Lower;
      host "runtime.batch_s" "s" Lower;
      host "serve.phase1_s" "s" Lower;
      host "serve.phase2_s" "s" Lower;
      sim "serve.utilization" "frac" Lower;
      sim "serve.queue_mean" "count" Lower;
      sim "serve.rejected_frac" "frac" Lower;
      host "profile.overhead_x" "x" Lower;
      host "trace.overhead_frac" "frac" Lower;
      host "trace.coverage_frac" "frac" Higher;
    ]
