(** Compiler driver: high-level graph to PUMA program (Section 5).

    Runs tiling, hierarchical partitioning, global scheduling with MVM
    coalescing, and code generation with register allocation. Options
    toggle the individual optimizations so the Table 8 ablations can
    compare against the naive baselines. *)

type options = {
  partition_strategy : Partition.strategy;
  coalesce_mvms : bool;
  wrap_batch_loop : bool;
      (** Wrap each core stream in SFU-driven batch control flow (used for
          CNN workloads). *)
  optimize_graph : bool;
      (** Run {!Optimize} (CSE + DCE) before tiling (default on). *)
  analysis_gate : bool;
      (** Fail compilation when the post-codegen static analysis reports
          errors (default on). Turning it off still runs the analysis and
          records the report in {!result.analysis}. *)
  repair_ordering : bool;
      (** Run the {!Sequencing} repair pass on channels the
          happens-before analysis flags for in-flight pressure above the
          receive-FIFO depth (default on), bounding each to [fifo_depth]
          queued packets. A program with no flagged channel passes
          through byte-identical.
          Turning it off leaves any [E-FIFO-ORDER] for the analysis
          gate. *)
  check_equiv : bool;
      (** Run the translation validator ({!Puma_analysis.Equiv}) on the
          final program against the lowered dataflow (default on). Its
          diagnostics merge into {!result.analysis}, so a refuted
          compilation ([E-EQUIV]) trips the analysis gate. It compares
          the same symbolic run ({!Puma_analysis.Equiv.run}) that gives
          the analysis its value ranges and cost bound: a compile makes
          the run once. *)
  static_analysis : bool;
      (** Run the post-codegen static analysis passes (default on).
          Turning it off leaves {!result.analysis} empty and skips the
          gate — an escape hatch for full-size scale-out models whose
          whole-program gates cost more than their simulation; the
          per-node gates ({!Puma_cluster.Cluster.analyze_shards}) still
          apply. *)
  cluster : Partition.cluster option;
      (** Partition across this many cluster nodes with the given scheme
          (default [None] — single node). The emitted program's tile
          array is padded to the full [nodes * tiles_per_node] global
          tile space so the runtime can split it at fixed strides. *)
}

val default_options : options

type result = {
  program : Puma_isa.Program.t;
  analysis : Puma_analysis.Analyze.report;
      (** Post-codegen static analysis report ({!Puma_analysis.Analyze}),
          including the value-range and resource passes. [compile] fails
          if it contains errors; warnings and infos are kept here for
          callers to surface. *)
  equiv : Puma_analysis.Equiv.result option;
      (** The translation-validation verdict ([None] when [check_equiv]
          is off). For a compilation that passed the default gate this is
          always [Some r] with [r.verdict = Proved]. *)
  equiv_reference : Puma_analysis.Equiv.dataflow;
      (** The reference dataflow extracted from the lowered graph
          ({!Lgraph.to_reference}) — always present, so callers can
          revalidate a saved/mutated program file against this model
          (the CLI's [analyze --reference]). *)
  layer_of : Puma_analysis.Resource.layer_of;
      (** Instruction-level provenance: the source-graph layer label
          (matrix / binding name, glue ops inheriting their nearest
          labelled predecessor's) each emitted instruction belongs to. *)
  sequencing_stats : Sequencing.stats;
      (** What the channel repair pass did ({!Sequencing.no_repair}
          when [repair_ordering] is off or nothing was flagged). *)
  codegen_stats : Codegen.stats;
  optimize_stats : Optimize.stats option;
  edge_stats : Partition.edge_stats;
  num_mvm_nodes : int;  (** MVM operations before coalescing. *)
  num_mvm_instructions : int;  (** After coalescing. *)
  critical_path_cycles : int;
      (** {!Schedule.critical_path_cycles} of the lowered graph: a static
          lower bound on one inference's simulated cycles. *)
  tiles_used : int;
  cores_used : int;
  mvmus_used : int;
  nodes_used : int;  (** Cluster nodes the placement spans. *)
  tiles_per_node : int;  (** Global tile stride between nodes. *)
}

val compile :
  ?options:options -> Puma_hwmodel.Config.t -> Puma_graph.Graph.t -> result

val usage : result -> Puma_isa.Usage.t
(** Static instruction mix of the compiled program (Figure 4). *)
