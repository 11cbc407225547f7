type message = {
  src_tile : int;
  dst_tile : int;
  fifo_id : int;
  payload : int array;
  mutable seq : int;
      (* Per-(src, dst, fifo) injection sequence number, assigned by
         [send]; [confirm_delivered] checks deliveries stay in this
         order. *)
}

exception Reordered of string

module Heap = Puma_util.Heap

(* Channel tables keyed by one int: tile and fifo ids (each below 2^21)
   packed into 21-bit fields, hashed by a multiplicative mix rather than
   the polymorphic hash. *)
module Chan = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 20
end)

let pair src dst = (src lsl 21) lor dst
let chan msg = (pair msg.src_tile msg.dst_tile lsl 21) lor msg.fifo_id
let find tbl k = Option.value ~default:0 (Chan.find_opt tbl k)

type t = {
  config : Puma_hwmodel.Config.t;
  topology : Topology.t;
  fabric : Fabric.t;
  energy : Puma_hwmodel.Energy.t;
  pending : message Heap.t;
  (* Wormhole routing preserves ordering between a given source and
     destination: a later message never overtakes an earlier one. *)
  last_arrival : int Chan.t;
  (* Sequence counters per (src, dst, fifo): next seq to assign on
     injection and next seq expected at delivery. Never reset, so the
     order contract holds across multiple runs on the same network. *)
  next_seq : int Chan.t;
  next_delivery : int Chan.t;
}

let create ~fabric (c : Puma_hwmodel.Config.t) ~energy ~num_tiles =
  {
    config = c;
    topology = Topology.create ~concentration:4 ~num_tiles ();
    fabric;
    energy;
    pending = Heap.create ();
    last_arrival = Chan.create 32;
    next_seq = Chan.create 32;
    next_delivery = Chan.create 32;
  }

let topology t = t.topology
let fabric t = t.fabric
let router_latency = 4
let words_per_flit = 2

let transit_cycles t ~src ~dst ~words =
  let hops = Topology.hops t.topology src dst in
  let flits = (words + words_per_flit - 1) / words_per_flit in
  (hops * router_latency) + flits
  + Fabric.transfer_cycles t.fabric t.config ~src ~dst ~words

let send t ~now msg =
  let seq = find t.next_seq (chan msg) in
  Chan.replace t.next_seq (chan msg) (seq + 1);
  msg.seq <- seq;
  let words = Array.length msg.payload in
  let arrival =
    now + transit_cycles t ~src:msg.src_tile ~dst:msg.dst_tile ~words
  in
  let key = pair msg.src_tile msg.dst_tile in
  let arrival =
    match Chan.find_opt t.last_arrival key with
    | Some prev when prev >= arrival -> prev + 1
    | Some _ | None -> arrival
  in
  Chan.replace t.last_arrival key arrival;
  let hops = Topology.hops t.topology msg.src_tile msg.dst_tile in
  Puma_hwmodel.Energy.add t.energy Noc (words * max 1 hops);
  let events =
    Fabric.offchip_words t.fabric ~src:msg.src_tile ~dst:msg.dst_tile ~words
  in
  if events > 0 then Puma_hwmodel.Energy.add t.energy Offchip events;
  Heap.push t.pending arrival msg

let pop_arrived t ~now =
  match Heap.peek t.pending with
  | Some (arrival, _) when arrival <= now -> Option.map snd (Heap.pop t.pending)
  | Some _ | None -> None

let requeue t ~now msg = Heap.push t.pending (now + 1) msg

let confirm_delivered t msg =
  let expected = find t.next_delivery (chan msg) in
  if msg.seq <> expected then
    raise
      (Reordered
         (Printf.sprintf
            "Network: fifo %d packet from tile %d delivered to tile %d out of \
             injection order (seq %d, expected %d)"
            msg.fifo_id msg.src_tile msg.dst_tile msg.seq expected));
  Chan.replace t.next_delivery (chan msg) (expected + 1)

let in_flight t = Heap.size t.pending
let next_arrival t = Option.map fst (Heap.peek t.pending)
