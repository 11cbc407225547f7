type message = {
  src_tile : int;
  dst_tile : int;
  fifo_id : int;
  payload : int array;
}

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

(* One (src, dst, fifo) channel: its messages with their arrival times,
   in injection order. *)
type channel = (int * message) Queue.t

type t = {
  config : Puma_hwmodel.Config.t;
  topology : Topology.t;
  fabric : Fabric.t;
  energy : Puma_hwmodel.Energy.t;
  channels : channel Chan.t;
  (* The head of every non-empty channel, keyed by its arrival time or,
     once refused, its retry time. *)
  heads : channel Heap.t;
  (* Wormhole routing preserves ordering between a given source and
     destination: a later message never arrives before an earlier one. *)
  last_arrival : int Chan.t;
  mutable in_flight : int;
}

let create ~fabric (c : Puma_hwmodel.Config.t) ~energy ~num_tiles =
  {
    config = c;
    topology = Topology.create ~concentration:4 ~num_tiles ();
    fabric;
    energy;
    channels = Chan.create 32;
    heads = Heap.create ();
    last_arrival = Chan.create 32;
    in_flight = 0;
  }

let topology t = t.topology
let fabric t = t.fabric
let router_latency = 4
let words_per_flit = 2

let transit ~hops t ~src ~dst ~words =
  let flits = (words + words_per_flit - 1) / words_per_flit in
  (hops * router_latency) + flits
  + Fabric.transfer_cycles t.fabric t.config ~src ~dst ~words

let transit_cycles t ~src ~dst ~words =
  transit ~hops:(Topology.hops t.topology src dst) t ~src ~dst ~words

let send t ~now msg =
  let words = Array.length msg.payload in
  let hops = Topology.hops t.topology msg.src_tile msg.dst_tile in
  let arrival =
    now + transit ~hops t ~src:msg.src_tile ~dst:msg.dst_tile ~words
  in
  let key = pair msg.src_tile msg.dst_tile in
  let arrival =
    match Chan.find t.last_arrival key with
    | prev when prev >= arrival -> prev + 1
    | _ | (exception Not_found) -> arrival
  in
  Chan.replace t.last_arrival key arrival;
  Puma_hwmodel.Energy.add t.energy Noc (words * max 1 hops);
  let events =
    Fabric.offchip_words t.fabric ~src:msg.src_tile ~dst:msg.dst_tile ~words
  in
  if events > 0 then Puma_hwmodel.Energy.add t.energy Offchip events;
  let ch =
    match Chan.find t.channels (chan msg) with
    | ch -> ch
    | exception Not_found ->
        let ch = Queue.create () in
        Chan.add t.channels (chan msg) ch;
        ch
  in
  if Queue.is_empty ch then Heap.push t.heads arrival ch;
  Queue.push (arrival, msg) ch;
  t.in_flight <- t.in_flight + 1

let deliver_arrived t ~now accept =
  let progress = ref false in
  while Heap.min_key t.heads <= now do
    let ch = Heap.pop_value t.heads in
    if accept (snd (Queue.peek ch)) then begin
      ignore (Queue.pop ch);
      t.in_flight <- t.in_flight - 1;
      progress := true;
      if not (Queue.is_empty ch) then
        Heap.push t.heads (fst (Queue.peek ch)) ch
    end
    else Heap.push t.heads (now + 1) ch
  done;
  !progress

let in_flight t = t.in_flight
let next_arrival t = Heap.min_key t.heads
