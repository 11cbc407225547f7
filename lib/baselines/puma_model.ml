module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy
module Latency = Puma_hwmodel.Latency

type estimate = {
  latency_s : float;
  energy_j : float;
  throughput_inf_s : float;
  nodes : int;
  tiles_used : int;
  mvm_executions : float;
  stage_s : float;
}

let fi = Float.of_int
let ceil_div a b = (a + b - 1) / b

type layer_timing = {
  t_first : float;  (** Cycles until the first result of an execution. *)
  t_stream : float;  (** Additional cycles to stream remaining waves. *)
  copies : int;
}

(* Replication: weight storage fixes a node count; one further node's worth
   of crossbars is provisioned when the workload has sliding-window layers
   (the ISAAC-style mapping replicates convolution kernels on spare
   crossbars to balance the window pipeline). Spare capacity is divided
   proportionally to each layer's wave volume. *)
let replication config (w : Workload.t) =
  let total_slots =
    List.fold_left (fun a (l : Workload.layer_info) -> a + l.slots) 0 w.layers
  in
  let cap = Config.mvmus_per_node config in
  let has_waves = List.exists (fun (l : Workload.layer_info) -> l.waves > 1) w.layers in
  let nodes =
    max 1 (ceil_div total_slots cap) + if has_waves then 1 else 0
  in
  let spare = (nodes * cap) - total_slots in
  let weights =
    List.map
      (fun (l : Workload.layer_info) ->
        if l.waves > 1 then fi (l.waves * l.slots) else 0.0)
      w.layers
  in
  let total_weight = List.fold_left ( +. ) 0.0 weights in
  let copies =
    List.map2
      (fun (l : Workload.layer_info) wgt ->
        if wgt = 0.0 || total_weight = 0.0 || l.slots = 0 then 1
        else
          let share = fi spare *. wgt /. total_weight in
          max 1 (1 + Float.to_int (share /. fi l.slots)))
      w.layers weights
  in
  (nodes, copies)

let seconds_to_cycles config s = s *. config.Config.frequency_ghz *. 1.0e9

let layer_timing config ~copies (l : Workload.layer_info) =
  let c : Config.t = config in
  let dim = c.mvmu_dim in
  if l.slots = 0 then begin
    let cores = max 1 (ceil_div l.out_words dim) in
    let vec = fi l.vector_elems /. fi (cores * c.vfu_width) in
    let move = fi (l.in_words + l.out_words) /. fi Latency.bus_words_per_cycle in
    { t_first = vec +. move; t_stream = 0.0; copies = 1 }
  end
  else begin
    let waves_eff = ceil_div l.waves copies in
    let cores = max 1 (ceil_div (l.slots * copies) c.mvmus_per_core) in
    let tiles = max 1 (ceil_div cores c.cores_per_tile) in
    let layer_nodes = ceil_div (l.slots * copies) (Config.mvmus_per_node c) in
    let t_mvm = fi (Latency.mvm c) in
    let ii = fi (Latency.mvm_initiation c) in
    (* Partial-sum reduction over column blocks: loads + adds on each
       aggregating core, plus cross-node serialization over the off-chip
       link when the layer spans nodes (the wide-LSTM intra-layer
       communication penalty, Section 7.2). *)
    let reduce_local =
      fi (l.col_blocks - 1)
      *. fi (Latency.smem_access + ceil_div dim Latency.bus_words_per_cycle
             + ceil_div dim c.vfu_width + 7)
    in
    let reduce_words = (l.col_blocks - 1) * l.row_blocks * dim in
    let reduce_offchip =
      if layer_nodes > 1 then
        seconds_to_cycles c
          (fi (reduce_words * 2) /. Puma_noc.Offchip.link_bandwidth_bytes_per_sec)
      else 0.0
    in
    let vec_per_wave =
      fi l.vector_elems /. fi (max 1 l.waves) /. fi (cores * c.vfu_width)
    in
    (* Recurrent layers broadcast their state back to every input tile for
       the next time-step (sequential dependence); outputs also stream out
       through the producing tiles' control units. *)
    let out_per_wave = fi l.out_words /. fi (max 1 l.waves) in
    let bcast =
      if l.steps > 1 then
        fi tiles *. Float.of_int (ceil_div l.out_words dim) *. 7.0
      else 0.0
    in
    let out_offchip =
      if layer_nodes > 1 then
        seconds_to_cycles c
          (out_per_wave *. 2.0 /. Puma_noc.Offchip.link_bandwidth_bytes_per_sec)
      else 0.0
    in
    let comm =
      (out_per_wave /. fi Latency.bus_words_per_cycle) +. 24.0 +. bcast
      +. out_offchip
    in
    let per_wave =
      Float.max ii (reduce_local +. reduce_offchip +. vec_per_wave +. comm)
    in
    {
      t_first = t_mvm +. reduce_local +. reduce_offchip +. vec_per_wave +. comm;
      t_stream = fi (waves_eff - 1) *. per_wave;
      copies;
    }
  end

let timings config (w : Workload.t) =
  let nodes, copies = replication config w in
  ( nodes,
    List.map2
      (fun l c -> (l, layer_timing config ~copies:c l))
      w.layers copies )

let tiles_used config (w : Workload.t) ~copies_list =
  let slots =
    List.fold_left2
      (fun a (l : Workload.layer_info) c -> a + (l.slots * c))
      0 w.layers copies_list
  in
  max 1 (ceil_div slots (config.Config.mvmus_per_core * config.Config.cores_per_tile))

(* Dynamic event energy: the same per-event costs PUMAsim charges.
   Weight movement is absent by construction. *)
let dynamic_energy_pj config (w : Workload.t) =
  let c : Config.t = config in
  let dim = c.mvmu_dim in
  let e cat = Energy.per_event_pj c cat in
  let avg_hops = 4.0 in
  List.fold_left
    (fun acc (l : Workload.layer_info) ->
      let steps = fi l.steps in
      let mvm_execs = steps *. fi (l.waves * l.slots) in
      let mvm = mvm_execs *. e Mvm in
      let xreg = mvm_execs *. 2.0 *. fi dim *. e Xbar_reg in
      let vec =
        steps *. fi l.vector_elems
        *. (e Vfu +. (3.0 *. e Rf) +. if l.transcendental then e Lut else 0.0)
      in
      let reduce_elems =
        steps *. fi l.waves *. fi ((l.col_blocks - 1) * l.row_blocks * dim)
      in
      let reduce = reduce_elems *. (e Vfu +. (3.0 *. e Rf) +. e Smem +. e Bus) in
      let move =
        steps *. fi (l.in_words + l.out_words)
        *. ((2.0 *. e Smem) +. (2.0 *. e Bus) +. (avg_hops *. e Noc) +. e Fifo)
      in
      (* Sliding-window layers re-gather overlapping input windows: each
         wave assembles col_blocks * dim words from shared memory into
         XbarIn (saved by input shuffling, Table 8). *)
      let gather =
        if l.waves > 1 then
          steps *. fi l.waves *. fi (l.col_blocks * dim)
          *. (e Smem +. e Bus +. (2.0 *. e Rf))
        else 0.0
      in
      let layer_nodes = ceil_div l.slots (Config.mvmus_per_node c) in
      let offchip =
        if layer_nodes > 1 then
          (reduce_elems +. (steps *. fi l.out_words)) *. e Offchip
        else 0.0
      in
      let fetch =
        (mvm_execs *. 6.0 *. e Fetch)
        +. (steps *. fi l.vector_elems /. 8.0 *. e Fetch)
      in
      acc +. mvm +. xreg +. vec +. reduce +. move +. gather +. offchip +. fetch)
    0.0 w.layers

let estimate config (w : Workload.t) ~batch =
  let c : Config.t = config in
  let nodes, layer_times = timings config w in
  let copies_list = List.map (fun (_, t) -> t.copies) layer_times in
  let fill = List.fold_left (fun a (_, t) -> a +. t.t_first) 0.0 layer_times in
  let stream_max =
    List.fold_left (fun a (_, t) -> Float.max a t.t_stream) 0.0 layer_times
  in
  let max_steps =
    List.fold_left (fun a (l, _) -> max a l.Workload.steps) 1 layer_times
  in
  let step_stage =
    List.fold_left
      (fun a ((l : Workload.layer_info), t) ->
        if l.steps > 1 then Float.max a (t.t_first +. t.t_stream) else a)
      0.0 layer_times
  in
  let latency_1 = fill +. stream_max +. (fi (max_steps - 1) *. step_stage) in
  let ii_batch =
    List.fold_left
      (fun a ((l : Workload.layer_info), t) ->
        Float.max a (fi l.steps *. (t.t_first +. t.t_stream)))
      1.0 layer_times
  in
  let cycles = latency_1 +. (fi (batch - 1) *. ii_batch) in
  let hz = c.frequency_ghz *. 1.0e9 in
  let latency_s = cycles /. hz in
  let tiles = tiles_used config w ~copies_list in
  let energy_j = fi batch *. dynamic_energy_pj config w /. 1.0e12 in
  {
    latency_s;
    energy_j;
    throughput_inf_s = fi batch /. latency_s;
    nodes;
    tiles_used = tiles;
    mvm_executions = fi batch *. fi (Workload.total_mvm_executions w);
    stage_s = ii_batch /. hz;
  }

type layer_report = {
  label : string;
  steps : int;
  slots : int;
  copies : int;
  t_first_us : float;
  t_stream_us : float;
}

let layer_reports config (w : Workload.t) =
  let c : Config.t = config in
  let hz = c.frequency_ghz *. 1.0e9 in
  let _, layer_times = timings config w in
  List.map
    (fun ((l : Workload.layer_info), (t : layer_timing)) ->
      {
        label = l.label;
        steps = l.steps;
        slots = l.slots;
        copies = t.copies;
        t_first_us = t.t_first /. hz *. 1.0e6;
        t_stream_us = t.t_stream /. hz *. 1.0e6;
      })
    layer_times

(* Latency with spatial pipelining disabled (every layer executes all its
   steps/waves to completion before the next starts): the Section 4.1.2
   ablation. *)
let latency_no_pipelining config (w : Workload.t) =
  let c : Config.t = config in
  let _, layer_times = timings config w in
  let cycles =
    List.fold_left
      (fun acc ((l : Workload.layer_info), t) ->
        acc +. (fi l.steps *. (t.t_first +. t.t_stream)))
      0.0 layer_times
  in
  cycles /. (c.frequency_ghz *. 1.0e9)
