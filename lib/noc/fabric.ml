type topology = Ring | Mesh2d | All_to_all

let topology_name = function
  | Ring -> "ring"
  | Mesh2d -> "mesh"
  | All_to_all -> "all-to-all"

let topology_of_string s =
  match String.lowercase_ascii s with
  | "ring" -> Some Ring
  | "mesh" | "mesh2d" -> Some Mesh2d
  | "all" | "all-to-all" | "all_to_all" -> Some All_to_all
  | _ -> None

type t = {
  nodes : int;
  topology : topology;
  tiles_per_node : int;
  zero_cost : bool;
  side : int;  (* columns of the near-square node grid (Mesh2d) *)
}

let create ?(topology = Mesh2d) ?(zero_cost = false) ~nodes ~tiles_per_node ()
    =
  if nodes < 1 then invalid_arg "Fabric.create: nodes must be >= 1";
  if tiles_per_node < 1 then
    invalid_arg "Fabric.create: tiles_per_node must be >= 1";
  let side =
    let rec grow s = if s * s >= nodes then s else grow (s + 1) in
    grow 1
  in
  { nodes; topology; tiles_per_node; zero_cost; side }

let nodes t = t.nodes
let topology t = t.topology
let tiles_per_node t = t.tiles_per_node
let zero_cost t = t.zero_cost
let node_of t tile = min (tile / t.tiles_per_node) (t.nodes - 1)

(* Node-level hop count over the chip-to-chip links: each hop is one
   link traversal, so two directly connected nodes are 1 hop apart and
   a node is 0 hops from itself. *)
let hops t a b =
  if a = b then 0
  else
    match t.topology with
    | All_to_all -> 1
    | Ring ->
        let d = abs (a - b) in
        min d (t.nodes - d)
    | Mesh2d ->
        let coord i = (i mod t.side, i / t.side) in
        let xa, ya = coord a and xb, yb = coord b in
        abs (xa - xb) + abs (ya - yb)

let transfer_cycles t (c : Puma_hwmodel.Config.t) ~src ~dst ~words =
  let h = hops t (node_of t src) (node_of t dst) in
  if h = 0 || t.zero_cost then 0 else h * Offchip.transfer_cycles c ~words

(* Number of word-sized [Offchip] energy events a message charges: one
   per word per link traversed. Zero-cost fabrics (the bit-identity
   differential harness) charge nothing. *)
let offchip_words t ~src ~dst ~words =
  let h = hops t (node_of t src) (node_of t dst) in
  if t.zero_cost then 0 else words * h
