(** Analytical PUMA performance/energy model for full-size workloads.

    The functional simulator validates this model on mini networks; the
    model regenerates the Figure 11 series at paper scale where graph
    compilation of unrolled convolutions/sequences would be intractable
    (the paper's own compiler uses control flow instead of unrolling).

    Mechanics modelled per layer execution: the parallel MVM across all
    the layer's slots (one pipelined crossbar wave per convolution
    window), the partial-sum reduction over column blocks, temporal-SIMD
    vector work spread over the cores holding the layer, and output
    distribution over the NoC. Latency composes layers by Section 4.1.2
    spatial pipelining: recurrent stages overlap across time-steps and
    convolution stages across windows; spare crossbar capacity replicates
    convolution kernels to balance the pipeline (the standard mapping the
    paper inherits from ISAAC). Energy sums the per-event costs of
    {!Puma_hwmodel.Energy} plus the occupied tiles' static power over the
    latency; weight movement is, by construction, zero. *)

type estimate = {
  latency_s : float;  (** Batch latency. *)
  energy_j : float;  (** Batch energy. *)
  throughput_inf_s : float;
  nodes : int;  (** Nodes needed to hold the weights. *)
  tiles_used : int;
  mvm_executions : float;  (** Crossbar firings for the whole batch. *)
  stage_s : float;  (** Pipeline initiation interval between inferences. *)
}

val estimate :
  Puma_hwmodel.Config.t -> Workload.t -> batch:int -> estimate

type layer_report = {
  label : string;
  steps : int;
  slots : int;
  copies : int;  (** Replication factor (convolution balancing). *)
  t_first_us : float;  (** Latency to the first result of one execution. *)
  t_stream_us : float;  (** Additional streaming time (windows). *)
}

val layer_reports : Puma_hwmodel.Config.t -> Workload.t -> layer_report list
(** Per-layer timing decomposition behind {!estimate} (the CLI's
    [estimate --layers] view). *)

val latency_no_pipelining :
  Puma_hwmodel.Config.t -> Workload.t -> float
(** Single-inference latency with inter-layer pipelining disabled (the
    Section 4.1.2 ablation): layers run to completion sequentially. *)
