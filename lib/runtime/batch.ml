module Node = Puma_sim.Node
module Cluster = Puma_cluster.Cluster
module Energy = Puma_hwmodel.Energy
module Program = Puma_isa.Program
module Pool = Puma_util.Pool
module Rng = Puma_util.Rng

module Profile = Puma_profile.Profile

type request = { index : int; inputs : (string * float array) list }

type stall_split = (Puma_arch.Core.stall * int) list

type response = {
  index : int;
  outputs : (string * float array) list;
  cycles : int;
  dynamic_energy_pj : float;
  stalls : stall_split;
}

type occupancy = { busy_cycles : int; stall_cycles : stall_split }

let input_lengths (program : Program.t) =
  let by_name = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun (b : Program.io_binding) ->
      if not (Hashtbl.mem by_name b.name) then order := b.name :: !order;
      let len =
        max
          (Option.value ~default:0 (Hashtbl.find_opt by_name b.name))
          (b.offset + b.length)
      in
      Hashtbl.replace by_name b.name len)
    program.inputs;
  List.rev_map (fun name -> (name, Hashtbl.find by_name name)) !order

let request_seed ~seed ~index =
  (* splitmix64's finalizer over the combined (seed, index): decorrelates
     neighbouring requests even for tiny seeds. *)
  let z = Int64.add (Int64.of_int seed)
      (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31))

let random_requests program ~batch ~seed =
  let lengths = input_lengths program in
  List.init batch (fun index ->
      let rng = Rng.create (request_seed ~seed ~index) in
      let inputs =
        List.map
          (fun (name, len) -> (name, Puma_util.Tensor.vec_rand rng len 0.8))
          lengths
      in
      { index; inputs })

(* One warmed machine: the first inference on a fresh node is a few
   cycles cheaper (cold pipelines and attribute memories); running a
   throwaway all-zero inference first puts every node in the same steady
   state, so a request's cycle count does not depend on whether it
   happened to be the first one its worker served. Several chips make
   the machine a cluster's joined node. *)
let warmed_node ?noise_seed ?faults ?(nodes = 1) ?topology program =
  (match faults with
  | Some plans when Array.length plans <> nodes ->
      invalid_arg
        (Printf.sprintf "Batch.warmed_node: %d fault plans for %d chips"
           (Array.length plans) nodes)
  | Some _ | None -> ());
  let node =
    if nodes = 1 then
      Node.create ?noise_seed
        ?faults:(Option.bind faults (fun plans -> plans.(0)))
        program
    else
      Cluster.node (Cluster.create ~nodes ?topology ?noise_seed ?faults program)
  in
  let zeros =
    List.map (fun (name, len) -> (name, Array.make len 0.0))
      (input_lengths program)
  in
  ignore (Node.run node ~inputs:zeros);
  node

(* Per-request dynamic energy from event-count deltas: every charge
   during [Node.run] goes through [Energy.add] with an integer event
   count, so (count_after - count_before) * per_event_pj summed in fixed
   category order is exact and independent of how much energy the worker
   node had already accumulated. Subtracting cumulative [total_pj]
   snapshots instead rounds differently at different magnitudes, making a
   request's reported energy depend on which pool worker served it and in
   what order. *)
let energy_counts node =
  Array.of_list
    (List.map (Energy.count (Node.energy node)) Energy.all_categories)

let energy_delta_pj config ~before ~after =
  List.fold_left
    (fun (i, acc) cat ->
      let events = after.(i) - before.(i) in
      (i + 1, acc +. (Float.of_int events *. Energy.per_event_pj config cat)))
    (0, 0.0) Energy.all_categories
  |> snd

(* Stall-cycle deltas between two profiler snapshots, nonzero only. *)
let stall_delta (before : Profile.totals) (after : Profile.totals) =
  List.filter_map
    (fun (reason, b) ->
      match List.assoc_opt reason before.Profile.by_stall with
      | Some a when b - a > 0 -> Some (reason, b - a)
      | None when b > 0 -> Some (reason, b)
      | _ -> None)
    after.Profile.by_stall

let serve node (r : request) =
  let c0 = Node.cycles node in
  let e0 = energy_counts node in
  let outputs = Node.run node ~inputs:r.inputs in
  {
    index = r.index;
    outputs;
    cycles = Node.cycles node - c0;
    dynamic_energy_pj =
      energy_delta_pj (Node.config node) ~before:e0 ~after:(energy_counts node);
    stalls = [];
  }

let merge_stalls splits =
  List.filter_map
    (fun reason ->
      let n =
        List.fold_left
          (fun acc split ->
            acc + Option.value ~default:0 (List.assoc_opt reason split))
          0 splits
      in
      if n > 0 then Some (reason, n) else None)
    Puma_arch.Core.all_stalls

let run ?domains ?cluster_nodes ?topology ?noise_seed ?faults ?(profile = false)
    (program : Program.t) requests =
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some d -> invalid_arg (Printf.sprintf "Batch.run: %d domains" d)
    | None -> Pool.default_domains ()
  in
  (match cluster_nodes with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Batch.run: %d cluster nodes" c)
  | Some _ | None -> ());
  let requests = Array.of_list requests in
  let responses =
    Pool.map_init ~domains ~n:(Array.length requests)
      ~init:(fun ~worker:_ ->
        let node =
          warmed_node ?noise_seed ?faults ?nodes:cluster_nodes ?topology program
        in
        (* Attach the profiler only after warm-up, so the profile (like
           every other metric) covers exactly the served requests. Only
           its totals are read, so its trace window is the smallest there
           is. *)
        let prof =
          if profile then begin
            let p = Profile.create ~slice_capacity:1 () in
            Profile.attach p node;
            Some p
          end
          else None
        in
        (node, prof))
      (fun (node, prof) i ->
        match prof with
        | None -> (serve node requests.(i), 0)
        | Some p ->
            let before = Profile.totals p in
            let r = serve node requests.(i) in
            let after = Profile.totals p in
            ( { r with stalls = stall_delta before after },
              after.Profile.busy_cycles - before.Profile.busy_cycles ))
  in
  let busy_cycles = Array.fold_left (fun acc (_, b) -> acc + b) 0 responses in
  let responses = Array.map fst responses in
  ( responses,
    {
      busy_cycles;
      stall_cycles =
        merge_stalls (Array.to_list (Array.map (fun r -> r.stalls) responses));
    } )
