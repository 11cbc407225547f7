type strategy = Locality | Random of int
type scheme = Pipelined | Sharded
type cluster = { nodes : int; scheme : scheme }

let scheme_name = function Pipelined -> "pipelined" | Sharded -> "sharded"

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "pipelined" | "pipeline" -> Some Pipelined
  | "sharded" | "shard" -> Some Sharded
  | _ -> None

type place = { tile : int; core : int; node : int }

type t = {
  config : Puma_hwmodel.Config.t;
  slot_mvmu : (int * int * int) array;
  node_place : place array;
  tiles_used : int;
  cores_used : int;
  nodes_used : int;
  tiles_per_node : int;
}

(* Assign each position of the packing order to a cluster node.

   Pipelined: contiguous runs of the order (which is matrix-major under
   the locality strategy), broken preferentially at matrix boundaries
   once a node holds its balanced share, and forcibly at node capacity.
   Sharded: slots scatter by row block, so every matrix's output rows
   split across the nodes and each node computes a slice of every
   layer. *)
let assign_nodes lg order ~nodes ~scheme ~capacity =
  let num_slots = Array.length order in
  let node_of_pos = Array.make (max 1 num_slots) 0 in
  (match scheme with
  | Pipelined ->
      let target = (num_slots + nodes - 1) / nodes in
      let k = ref 0 and count = ref 0 in
      Array.iteri
        (fun i slot ->
          let new_group =
            i > 0
            &&
            let a = Lgraph.slot lg order.(i - 1) and b = Lgraph.slot lg slot in
            a.Lgraph.matrix <> b.Lgraph.matrix
          in
          if
            !k < nodes - 1
            && !count > 0
            && (!count >= capacity || (new_group && !count >= target))
          then begin
            incr k;
            count := 0
          end;
          node_of_pos.(i) <- !k;
          incr count)
        order
  | Sharded ->
      Array.iteri
        (fun i slot ->
          let s = Lgraph.slot lg slot in
          node_of_pos.(i) <- s.Lgraph.row_block mod nodes)
        order);
  let per_node = Array.make nodes 0 in
  Array.iteri
    (fun i _ ->
      let k = node_of_pos.(i) in
      per_node.(k) <- per_node.(k) + 1)
    order;
  Array.iteri
    (fun k used ->
      if used > capacity then
        Puma_isa.Diag.fail ~code:"E-PLACE"
          "%s placement puts %d MVMUs on node %d but a node holds %d; use \
           more nodes"
          (scheme_name scheme) used k capacity)
    per_node;
  (node_of_pos, per_node)

(* Regroup every partial-sum reduction the tiler recorded to follow the
   placement of its terms: sort them by place, fold each core's run into
   one value, then combine core sums with a balanced tree within each
   tile, tile sums within each node, and node sums. Each boundary is
   crossed by one value per combine, exactly as a left-to-right chain
   crosses it, but the depth falls from k-1 adds to about log k. *)
let reduce_by_place lg place_of_slot =
  let place id =
    match (Lgraph.node lg id).op with
    | L_mvm { slot } -> place_of_slot slot
    | L_input _ | L_const _ | L_binop _ | L_unop _ | L_immop _ | L_gather _
    | L_output _ ->
        invalid_arg "Partition: a reduction term is not an MVM"
  in
  let chain = function
    | [] -> invalid_arg "Partition: empty reduction"
    | t :: ts -> List.fold_left (fun acc u -> Lgraph.Plus (acc, u)) t ts
  in
  let rec balanced = function
    | [ t ] -> t
    | ts ->
        let half = (List.length ts + 1) / 2 in
        Lgraph.Plus
          ( balanced (List.filteri (fun i _ -> i < half) ts),
            balanced (List.filteri (fun i _ -> i >= half) ts) )
  in
  (* Combine the members of each [key] group with [f], in order; a group
     keeps the place of its first member, which agrees on coarser keys. *)
  let combine key f xs =
    let rec go acc = function
      | [] -> List.rev acc
      | (p, _) :: _ as xs ->
          let group, rest = List.partition (fun (q, _) -> key q = key p) xs in
          go ((p, f (List.map snd group)) :: acc) rest
    in
    go [] xs
  in
  Lgraph.reshape_sums lg (fun terms ->
      Array.to_list terms
      |> List.map (fun id -> (place id, Lgraph.Term id))
      |> List.stable_sort (fun (p, _) (q, _) ->
             compare (p.node, p.tile, p.core) (q.node, q.tile, q.core))
      |> combine (fun p -> (p.node, p.tile, p.core)) chain
      |> combine (fun p -> (p.node, p.tile)) balanced
      |> combine (fun p -> p.node) balanced
      |> List.map snd |> balanced)

let partition ?cluster (config : Puma_hwmodel.Config.t) strategy lg =
  let num_slots = Lgraph.num_slots lg in
  let mvmus_per_core = config.mvmus_per_core in
  let cores_per_tile = config.cores_per_tile in
  let capacity = Puma_hwmodel.Config.mvmus_per_node config in
  (* Models larger than one node spill onto further nodes (Section 3.2.5);
     tiles beyond [tiles_per_node] belong to node 1, 2, ... A hard cap
     catches runaway models that would swamp the functional simulator. *)
  let max_nodes = 64 in
  if num_slots > capacity * max_nodes then
    Puma_isa.Diag.fail ~code:"E-MAXNODES"
      "model needs %d MVMUs but at most %d nodes (%d MVMUs) are supported \
       by the functional path"
      num_slots max_nodes (capacity * max_nodes);
  (match cluster with
  | Some { nodes; _ } when nodes < 1 ->
      invalid_arg "Partition: cluster nodes must be >= 1"
  | Some { nodes; _ } when num_slots > capacity * nodes ->
      Puma_isa.Diag.fail ~code:"E-NODES"
        "model needs %d MVMUs but %d nodes hold %d; use at least %d nodes"
        num_slots nodes (capacity * nodes)
        ((num_slots + capacity - 1) / capacity)
  | Some _ | None -> ());
  (* Order slots, then pack sequentially into MVMUs -> cores -> tiles. *)
  let order = Array.init num_slots (fun i -> i) in
  (match strategy with
  | Locality ->
      (* Slots were created in (matrix, row-block, col-block) order by the
         tiler; sort to make the invariant explicit. *)
      let key i =
        let s = Lgraph.slot lg i in
        (s.Lgraph.matrix, s.Lgraph.row_block, s.Lgraph.col_block)
      in
      Array.sort (fun a b -> compare (key a) (key b)) order
  | Random seed ->
      let rng = Puma_util.Rng.create seed in
      Puma_util.Rng.shuffle rng order);
  let slot_mvmu = Array.make num_slots (0, 0, 0) in
  let mvmus_per_tile = mvmus_per_core * cores_per_tile in
  let nodes_used, tiles_per_node =
    match cluster with
    | None ->
        (* Sequential packing over the global tile space; tiles past
           [tiles_per_node] spill to further nodes implicitly. *)
        Array.iteri
          (fun pos slot ->
            let core_linear = pos / mvmus_per_core in
            let mvmu = pos mod mvmus_per_core in
            let tile = core_linear / cores_per_tile in
            let core = core_linear mod cores_per_tile in
            slot_mvmu.(slot) <- (tile, core, mvmu))
          order;
        let tiles = (num_slots + mvmus_per_tile - 1) / mvmus_per_tile in
        ((max 1 tiles + config.tiles_per_node - 1) / config.tiles_per_node,
         config.tiles_per_node)
    | Some { nodes; scheme } ->
        let node_of_pos, per_node =
          assign_nodes lg order ~nodes ~scheme ~capacity
        in
        (* Every node packs its own slots densely from its first tile;
           node k owns the contiguous global tile block [k*B, (k+1)*B). *)
        let stride =
          Array.fold_left
            (fun acc used ->
              max acc ((used + mvmus_per_tile - 1) / mvmus_per_tile))
            1 per_node
        in
        let local_pos = Array.make nodes 0 in
        Array.iteri
          (fun pos slot ->
            let k = node_of_pos.(pos) in
            let p = local_pos.(k) in
            local_pos.(k) <- p + 1;
            let core_linear = p / mvmus_per_core in
            let mvmu = p mod mvmus_per_core in
            let tile = (k * stride) + (core_linear / cores_per_tile) in
            let core = core_linear mod cores_per_tile in
            slot_mvmu.(slot) <- (tile, core, mvmu))
          order;
        (nodes, stride)
  in
  let node_of_tile tile = min (tile / tiles_per_node) (nodes_used - 1) in
  let place_of_slot s =
    let tile, core, _ = slot_mvmu.(s) in
    { tile; core; node = node_of_tile tile }
  in
  reduce_by_place lg place_of_slot;
  (* Place non-MVM nodes by demand, in reverse topological order. *)
  let ns = Lgraph.nodes lg in
  let cons = Lgraph.consumers lg in
  let node_place =
    Array.make (Array.length ns) { tile = 0; core = 0; node = 0 }
  in
  let assigned = Array.make (Array.length ns) false in
  (* First pass: MVM nodes are pinned to their slot's core, and partial-sum
     reductions (binops whose operands are all MVM outputs or earlier such
     reductions — the trees [reduce_by_place] shaped) are pinned next to
     an operand. Reducing partials where they are produced mirrors the
     in-tile accumulation of the architecture; placing them by demand
     instead would funnel every partial of a wide layer into the one tile
     that consumes the final sums, overflowing its shared memory with
     remote copies. *)
  Array.iter
    (fun (n : Lgraph.lnode) ->
      match n.op with
      | L_mvm { slot } ->
          node_place.(n.id) <- place_of_slot slot;
          assigned.(n.id) <- true
      | L_binop _
        when Array.length n.preds > 0
             && Array.for_all (fun p -> assigned.(p)) n.preds ->
          (* Pin at the LAST operand, the right subtree of a reduction
             tree: every combine then ships exactly one value across the
             boundary between its halves, and the root lands with the
             last term, rather than every partial being pulled into the
             first slot's tile (which would exceed its FIFO fan-in on
             wide layers). *)
          node_place.(n.id) <-
            node_place.(n.preds.(Array.length n.preds - 1));
          assigned.(n.id) <- true
      | L_input _ | L_const _ | L_binop _ | L_unop _ | L_immop _ | L_gather _
      | L_output _ ->
          ())
    ns;
  (* Demand placement, iterated to a fixpoint with two direction-aware
     passes. Elementwise compute (binop / unop / immop) and outputs
     follow their PRODUCERS: computing next to the inputs ships one
     result downstream instead of pulling every operand across the chip
     — on a partitioned LSTM this keeps the gate arithmetic on the node
     that computed the gates, so only the hidden-state segments cross
     the inter-node link. Marshalling nodes (gathers, inputs, constants)
     follow their CONSUMERS, landing next to the MVM core that reads
     them. A node whose producers are unplaceable (its inputs are model
     inputs placed by demand themselves) falls through to the consumer
     pass, so every connected node is eventually placed. *)
  let load = Hashtbl.create 64 in
  let load_of (p : place) =
    Option.value ~default:0 (Hashtbl.find_opt load (p.tile, p.core))
  in
  let bump (p : place) =
    Hashtbl.replace load (p.tile, p.core) (load_of p + 1)
  in
  (* Among the places of already-assigned consumers, prefer the core
     holding the fewest demand-placed nodes (ties broken on the place,
     keeping placement deterministic): always taking the first consumer
     would stack every segment of a wide value onto the same core. *)
  let best_consumer id =
    Array.fold_left
      (fun acc c ->
        if not assigned.(c) then acc
        else
          let p = node_place.(c) in
          match acc with
          | None -> Some p
          | Some q ->
              if (load_of p, p.tile, p.core) < (load_of q, q.tile, q.core)
              then Some p
              else acc)
      None cons.(id)
  in
  let first_pred (n : Lgraph.lnode) =
    Array.fold_left
      (fun acc p ->
        match acc with
        | Some _ -> acc
        | None -> if assigned.(p) then Some node_place.(p) else None)
      None n.preds
  in
  let follows_producer (n : Lgraph.lnode) =
    match n.op with
    | L_binop _ | L_unop _ | L_immop _ | L_output _ -> true
    | L_input _ | L_const _ | L_mvm _ | L_gather _ -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (n : Lgraph.lnode) ->
        if (not assigned.(n.id)) && follows_producer n then
          match first_pred n with
          | Some p ->
              node_place.(n.id) <- p;
              assigned.(n.id) <- true;
              bump p;
              changed := true
          | None -> ())
      ns;
    for id = Array.length ns - 1 downto 0 do
      if not assigned.(id) then begin
        match best_consumer id with
        | Some p ->
            node_place.(id) <- p;
            assigned.(id) <- true;
            bump p;
            changed := true
        | None -> ()
      end
    done
  done;
  (* Anything still unplaced is disconnected from every placed node (e.g.
     a graph with no MVMs at all): default to tile 0, core 0. *)
  Array.iter
    (fun (n : Lgraph.lnode) ->
      if not assigned.(n.id) then begin
        node_place.(n.id) <- { tile = 0; core = 0; node = 0 };
        assigned.(n.id) <- true
      end)
    ns;
  let tiles_used =
    Array.fold_left (fun acc p -> max acc (p.tile + 1)) 1 node_place
  in
  let cores_used =
    let seen = Hashtbl.create 32 in
    Array.iter (fun p -> Hashtbl.replace seen (p.tile, p.core) ()) node_place;
    Hashtbl.length seen
  in
  { config; slot_mvmu; node_place; tiles_used; cores_used; nodes_used;
    tiles_per_node }

let mvmu_of_slot t s =
  let _, _, m = t.slot_mvmu.(s) in
  m

type edge_stats = {
  intra_core : int;
  cross_core : int;
  cross_tile : int;
  cross_node : int;
}

let edge_stats t lg =
  let ns = Lgraph.nodes lg in
  let stats =
    ref { intra_core = 0; cross_core = 0; cross_tile = 0; cross_node = 0 }
  in
  Array.iter
    (fun (n : Lgraph.lnode) ->
      let dst = t.node_place.(n.id) in
      Array.iter
        (fun p ->
          let src = t.node_place.(p) in
          let s = !stats in
          stats :=
            (if src.tile <> dst.tile then
               { s with
                 cross_tile = s.cross_tile + 1;
                 cross_node =
                   (s.cross_node + if src.node <> dst.node then 1 else 0);
               }
             else if src.core <> dst.core then
               { s with cross_core = s.cross_core + 1 }
             else { s with intra_core = s.intra_core + 1 }))
        n.preds)
    ns;
  !stats
