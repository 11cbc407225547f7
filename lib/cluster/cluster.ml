module Program = Puma_isa.Program
module Instr = Puma_isa.Instr
module Fabric = Puma_noc.Fabric
module Network = Puma_noc.Network
module Energy = Puma_hwmodel.Energy
module Node = Puma_sim.Node

(* Contiguous block split: node k owns global tile positions
   [k*stride, (k+1)*stride). Programs compiled with a cluster option are
   already padded to [nodes * tiles_per_node] tiles, so the blocks line
   up with the partitioner's placement; any other program splits at the
   balanced ceiling stride. *)
let split (program : Program.t) ~nodes =
  if nodes < 1 then invalid_arg "Cluster: nodes must be >= 1";
  let ntiles = Array.length program.Program.tiles in
  let stride = max 1 ((ntiles + nodes - 1) / nodes) in
  let shards =
    Array.init nodes (fun k ->
        let lo = min (k * stride) ntiles in
        let hi = min (lo + stride) ntiles in
        let owns (b : Program.io_binding) = b.tile >= lo && b.tile < hi in
        let localize (b : Program.io_binding) =
          { b with Program.tile = b.tile - lo }
        in
        {
          program with
          Program.tiles = Array.sub program.Program.tiles lo (hi - lo);
          inputs =
            List.filter_map
              (fun b -> if owns b then Some (localize b) else None)
              program.Program.inputs;
          outputs =
            List.filter_map
              (fun b -> if owns b then Some (localize b) else None)
              program.Program.outputs;
          constants =
            List.filter_map
              (fun (b, raw) -> if owns b then Some (localize b, raw) else None)
              program.Program.constants;
        })
  in
  (stride, shards)

let split_program program ~nodes = snd (split program ~nodes)

type t = { shards : Node.t array; runner : Node.t }

let create ?(nodes = 2) ?(topology = Fabric.Mesh2d) ?(zero_cost = false)
    ?(noise_seed = 42) ?faults (program : Program.t) =
  (match faults with
  | Some plans when Array.length plans <> nodes ->
      invalid_arg "Cluster.create: faults must have one slot per node"
  | Some _ | None -> ());
  let config = program.Program.config in
  let stride, shard_programs = split program ~nodes in
  let fabric =
    Fabric.create ~topology ~zero_cost ~nodes ~tiles_per_node:stride ()
  in
  (* One ledger for the whole machine: every chip's tiles and the fabric
     network charge it. *)
  let energy = Energy.create config in
  let network =
    Network.create ~fabric config ~energy
      ~num_tiles:(max 1 (Array.length program.Program.tiles))
  in
  let shards =
    Array.mapi
      (fun k sp ->
        (* Each chip programs its crossbars from its own noise stream and
           its own fault plan — node k's devices are independent of node
           j's. *)
        let faults = Option.bind faults (fun plans -> plans.(k)) in
        Node.create ~noise_seed:(noise_seed + k) ?faults ~energy sp)
      shard_programs
  in
  { shards; runner = Node.join ~network program shards }

let node t = t.runner
let nodes t = Array.length t.shards
let cycles t = Node.cycles t.runner
let shard t k = t.shards.(k)
let run t ~inputs = Node.run t.runner ~inputs
let ledger t = Node.energy t.runner

let energy_counts t =
  List.map (fun cat -> (cat, Energy.count (ledger t) cat)) Energy.all_categories

let offchip_words t = Energy.count (ledger t) Energy.Offchip

(* Exact: integer event counts times per-event energies, never the float
   accumulators. *)
let dynamic_energy_pj t =
  let config = Node.config t.runner in
  List.fold_left
    (fun acc (cat, n) ->
      if cat = Energy.Static then acc
      else acc +. (Float.of_int n *. Energy.per_event_pj config cat))
    0.0 (energy_counts t)

(* --- Per-node static gates ------------------------------------------- *)

type shard_report = {
  node : int;
  cross_out : int;
  cross_in : int;
  report : Puma_analysis.Analyze.report;
}

(* Distinct (src tile, dst tile, fifo) channels whose endpoints live on
   different nodes, from the whole program's send instructions. *)
let cross_channels (program : Program.t) ~nodes ~stride =
  let node_of tile = min (tile / stride) (nodes - 1) in
  let seen = Hashtbl.create 32 in
  let outs = Array.make nodes 0 and ins = Array.make nodes 0 in
  let scan_stream src_tile code =
    Array.iter
      (fun (i : Instr.t) ->
        match i with
        | Instr.Send { fifo_id; target; _ } ->
            let chan = (src_tile, target, fifo_id) in
            if
              node_of src_tile <> node_of target
              && not (Hashtbl.mem seen chan)
            then begin
              Hashtbl.add seen chan ();
              outs.(node_of src_tile) <- outs.(node_of src_tile) + 1;
              ins.(node_of target) <- ins.(node_of target) + 1
            end
        | _ -> ())
      code
  in
  Array.iteri
    (fun pos (tp : Program.tile_program) ->
      scan_stream pos tp.tile_code;
      Array.iter (fun code -> scan_stream pos code) tp.core_code)
    program.Program.tiles;
  (outs, ins)

let analyze_shards ~nodes (program : Program.t) =
  let stride, shard_programs = split program ~nodes in
  let outs, ins = cross_channels program ~nodes ~stride in
  Array.to_list
    (Array.mapi
       (fun k sp ->
         let report =
           if outs.(k) = 0 && ins.(k) = 0 then
             (* Channel-closed shard: the full single-node gate applies
                verbatim — structure, dataflow, ordering, ranges,
                resources. *)
             Puma_analysis.Analyze.program ~ranges:true ~resources:true
               ~order:true sp
           else
             (* Open cross-node channels make the shard unanalyzable in
                isolation (sends target tiles outside it; receives pair
                with remote sends), so the happens-before / FIFO-pressure
                guarantees come from the whole-program pass the compiler
                already ran. W-XNODE documents exactly that obstruction. *)
             Puma_analysis.Analyze.make_report
               [
                 Puma_analysis.Diag.warning ~code:"W-XNODE"
                   "node %d has %d outgoing / %d incoming cross-node \
                    channels; per-node analysis is limited to the \
                    whole-program compile-time gates (E-FIFO-ORDER, \
                    E-RACE, ranges) which already cover these streams"
                   k outs.(k) ins.(k);
               ]
         in
         { node = k; cross_out = outs.(k); cross_in = ins.(k); report })
       shard_programs)
