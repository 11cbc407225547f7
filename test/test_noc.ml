module Topology = Puma_noc.Topology
module Network = Puma_noc.Network
module Fabric = Puma_noc.Fabric
module Offchip = Puma_noc.Offchip
module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy

(* ---- Topology ---- *)

let test_topology_side () =
  Alcotest.(check int) "138 tiles -> 12x12" 12
    (Topology.side (Topology.create ~num_tiles:138 ()));
  (* Table 3's concentration 4: 138 tiles -> 35 routers -> 6x6 mesh. *)
  Alcotest.(check int) "conc 4 -> 6x6" 6
    (Topology.side (Topology.create ~concentration:4 ~num_tiles:138 ()));
  Alcotest.(check int) "1 tile" 1 (Topology.side (Topology.create ~num_tiles:1 ()))

let test_topology_hops () =
  let t = Topology.create ~num_tiles:16 () in
  Alcotest.(check int) "self" 0 (Topology.hops t 5 5);
  (* Tiles 0=(0,0) and 5=(1,1): manhattan 2 + ejection 1. *)
  Alcotest.(check int) "diag" 3 (Topology.hops t 0 5);
  Alcotest.(check int) "symmetric" (Topology.hops t 3 12) (Topology.hops t 12 3);
  (* With concentration, tiles sharing a router are zero network hops. *)
  let c = Topology.create ~concentration:4 ~num_tiles:16 () in
  Alcotest.(check int) "same router" 0 (Topology.hops c 0 3);
  Alcotest.(check bool) "cross router" true (Topology.hops c 0 4 > 0)

let test_topology_triangle_inequality () =
  let t = Topology.create ~num_tiles:9 () in
  for a = 0 to 8 do
    for b = 0 to 8 do
      for c = 0 to 8 do
        if a <> b && b <> c && a <> c then
          Alcotest.(check bool) "triangle" true
            (Topology.hops t a c <= Topology.hops t a b + Topology.hops t b c)
      done
    done
  done

let test_topology_average_hops () =
  let t = Topology.create ~num_tiles:4 () in
  Alcotest.(check bool) "avg in range" true
    (Topology.average_hops t > 1.0 && Topology.average_hops t < 4.0)

(* ---- Network ---- *)

let make_network () =
  let energy = Energy.create Config.default in
  let fabric =
    Fabric.create ~topology:All_to_all ~nodes:1
      ~tiles_per_node:Config.default.tiles_per_node ()
  in
  (Network.create ~fabric Config.default ~energy ~num_tiles:16, energy)

let msg src dst words =
  {
    Network.src_tile = src;
    dst_tile = dst;
    fifo_id = 0;
    payload = Array.make words 1;
  }

(* The heads offered at [now] that [refuse] lets through, in the order
   they were accepted. *)
let deliver_all ?(refuse = fun _ -> false) net ~now =
  let got = ref [] in
  ignore
    (Network.deliver_arrived net ~now (fun m ->
         (not (refuse m))
         && begin
           got := m :: !got;
           true
         end));
  List.rev !got

let test_network_delivery_time () =
  let net, _ = make_network () in
  let m = msg 0 5 4 in
  let expect = Network.transit_cycles net ~src:0 ~dst:5 ~words:4 in
  Network.send net ~now:10 m;
  Alcotest.(check bool) "not arrived early" true
    (deliver_all net ~now:(10 + expect - 1) = []);
  (match deliver_all net ~now:(10 + expect) with
  | [ m' ] -> Alcotest.(check int) "dst" 5 m'.Network.dst_tile
  | _ -> Alcotest.fail "message lost");
  Alcotest.(check int) "empty" 0 (Network.in_flight net)

let test_network_transit_model () =
  let net, _ = make_network () in
  (* Conc-4 mesh: tiles 0 and 5 sit on adjacent routers: 2 hops x 4
     cycles + ceil(4/2) flits = 10. *)
  Alcotest.(check int) "transit" 10 (Network.transit_cycles net ~src:0 ~dst:5 ~words:4);
  (* Same-router tiles pay only serialization. *)
  Alcotest.(check int) "same router" 2
    (Network.transit_cycles net ~src:0 ~dst:1 ~words:4);
  Alcotest.(check bool) "more words slower" true
    (Network.transit_cycles net ~src:0 ~dst:5 ~words:128
    > Network.transit_cycles net ~src:0 ~dst:5 ~words:2)

let test_network_ordering_by_arrival () =
  let net, _ = make_network () in
  Network.send net ~now:0 (msg 0 15 2) (* far *) ;
  Network.send net ~now:0 (msg 0 1 2) (* near *) ;
  (* The near message must be delivered first. *)
  let rec advance t =
    match deliver_all net ~now:t with
    | m :: _ -> m
    | [] -> advance (t + 1)
  in
  let first = advance 0 in
  Alcotest.(check int) "near first" 1 first.Network.dst_tile

let test_network_energy_charged () =
  let net, energy = make_network () in
  Network.send net ~now:0 (msg 0 5 8);
  Alcotest.(check bool) "noc energy" true (Energy.count energy Noc > 0)

(* A head its destination refuses stays first in its channel: a later
   message on the same channel is not offered past it, and the channel
   is offered again one cycle later. *)
let test_network_refused_head_blocks () =
  let net, _ = make_network () in
  Network.send net ~now:0 { (msg 0 1 1) with Network.payload = [| 1 |] };
  Network.send net ~now:0 { (msg 0 1 1) with Network.payload = [| 2 |] };
  let offered = ref [] in
  let progress =
    Network.deliver_arrived net ~now:100 (fun m ->
        offered := m.Network.payload.(0) :: !offered;
        false)
  in
  Alcotest.(check bool) "no progress" false progress;
  Alcotest.(check (list int)) "only the head is offered" [ 1 ] !offered;
  Alcotest.(check int) "retried next cycle" 101 (Network.next_arrival net);
  Alcotest.(check (list int)) "injection order" [ 1; 2 ]
    (List.map
       (fun m -> m.Network.payload.(0))
       (deliver_all net ~now:101));
  Alcotest.(check int) "empty" max_int (Network.next_arrival net)

(* While one fifo's head waits, another fifo of the same pair delivers. *)
let test_network_other_fifo_passes () =
  let net, _ = make_network () in
  Network.send net ~now:0 (msg 0 1 1);
  Network.send net ~now:0 { (msg 0 1 1) with Network.fifo_id = 1 };
  let got =
    deliver_all ~refuse:(fun m -> m.Network.fifo_id = 0) net ~now:100
  in
  Alcotest.(check (list int)) "fifo 1 delivered" [ 1 ]
    (List.map (fun m -> m.Network.fifo_id) got);
  Alcotest.(check int) "fifo 0 waits" 1 (Network.in_flight net)

let test_network_in_flight_counts_messages () =
  let net, _ = make_network () in
  for _ = 1 to 3 do
    Network.send net ~now:0 (msg 0 1 1)
  done;
  Network.send net ~now:0 (msg 2 1 1);
  Alcotest.(check int) "four messages on two channels" 4
    (Network.in_flight net);
  ignore (deliver_all ~refuse:(fun m -> m.Network.src_tile = 0) net ~now:100);
  Alcotest.(check int) "three wait on one channel" 3 (Network.in_flight net)

let test_network_heap_many_messages () =
  let net, _ = make_network () in
  (* Stress the arrival heap with many messages at scattered times. *)
  let rng = Puma_util.Rng.create 4 in
  for i = 0 to 199 do
    Network.send net
      ~now:(Puma_util.Rng.int rng 1000)
      (msg (i mod 16) ((i * 7) mod 16) (1 + (i mod 5)))
  done;
  Alcotest.(check int) "all in flight" 200 (Network.in_flight net);
  let popped = ref 0 in
  let rec drain t =
    if Network.in_flight net > 0 then begin
      popped := !popped + List.length (deliver_all net ~now:t);
      drain (t + 17)
    end
  in
  drain 0;
  Alcotest.(check int) "all delivered" 200 !popped

let test_network_per_pair_fifo_order () =
  (* A small message sent after a large one between the same pair must not
     overtake it (wormhole ordering). *)
  let net, _ = make_network () in
  Network.send net ~now:0 { (msg 0 5 128) with Network.fifo_id = 1 };
  Network.send net ~now:1 { (msg 0 5 1) with Network.fifo_id = 2 };
  let rec advance t =
    match deliver_all net ~now:t with
    | m :: _ -> m
    | [] -> advance (t + 1)
  in
  let first = advance 0 in
  Alcotest.(check int) "large message first" 1 first.Network.fifo_id

let test_network_cross_node_penalty () =
  (* Two tiles per node: messages between tiles 0 and 2 cross nodes and
     pay the off-chip serialization; 0 and 1 stay on-chip. *)
  let energy = Energy.create Config.default in
  let cfg = { Config.default with tiles_per_node = 2 } in
  let fabric =
    Fabric.create ~topology:All_to_all ~nodes:2 ~tiles_per_node:2 ()
  in
  let net = Network.create ~fabric cfg ~energy ~num_tiles:4 in
  let local = Network.transit_cycles net ~src:0 ~dst:1 ~words:64 in
  let remote = Network.transit_cycles net ~src:0 ~dst:2 ~words:64 in
  Alcotest.(check bool) "crossing nodes is much slower" true
    (remote > local + 10);
  Network.send net ~now:0 { (msg 0 2 64) with Network.fifo_id = 0 };
  Alcotest.(check bool) "off-chip energy" true (Energy.count energy Offchip > 0)

(* ---- Off-chip ---- *)

let test_offchip_transfer () =
  let c = Config.default in
  Alcotest.(check bool) "positive" true (Offchip.transfer_cycles c ~words:1 >= 1);
  (* 6.4 GB/s at 1 GHz: 1 MB should take ~163840 cycles. *)
  let cy = Offchip.transfer_cycles c ~words:(512 * 1024) in
  Alcotest.(check bool) "bandwidth model" true (cy > 150_000 && cy < 180_000);
  Alcotest.(check (float 1e-9)) "energy" 320.0 (Energy.per_event_pj c Offchip)

let () =
  Alcotest.run "noc"
    [
      ( "topology",
        [
          Alcotest.test_case "side" `Quick test_topology_side;
          Alcotest.test_case "hops" `Quick test_topology_hops;
          Alcotest.test_case "triangle" `Quick test_topology_triangle_inequality;
          Alcotest.test_case "average" `Quick test_topology_average_hops;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery time" `Quick test_network_delivery_time;
          Alcotest.test_case "transit model" `Quick test_network_transit_model;
          Alcotest.test_case "arrival ordering" `Quick test_network_ordering_by_arrival;
          Alcotest.test_case "energy" `Quick test_network_energy_charged;
          Alcotest.test_case "refused head blocks its channel" `Quick
            test_network_refused_head_blocks;
          Alcotest.test_case "heap stress" `Quick test_network_heap_many_messages;
          Alcotest.test_case "per-pair order" `Quick test_network_per_pair_fifo_order;
          Alcotest.test_case "cross-node penalty" `Quick test_network_cross_node_penalty;
          Alcotest.test_case "other fifo passes a waiting head" `Quick
            test_network_other_fifo_passes;
          Alcotest.test_case "in flight counts messages" `Quick
            test_network_in_flight_counts_messages;
        ] );
      ("offchip", [ Alcotest.test_case "transfer" `Quick test_offchip_transfer ]);
    ]
