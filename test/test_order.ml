(* Channel-ordering tests: the NoC against the receive pairing, and the
   happens-before analyzer's [E-FIFO-ORDER] pressure criterion. Random
   multi-tile send/receive programs run on both loops. Each send reads
   its own source words, so every packet carries a distinct payload; the
   NoC delivers each (src, dst, fifo) channel in injection order, so
   every program, flagged by the analyzer or not, completes with each
   receive landing exactly the payload of the send it pairs with. *)

module Analyze = Puma_analysis.Analyze
module Order = Puma_analysis.Order
module Diag = Puma_analysis.Diag
module Config = Puma_hwmodel.Config
module Instr = Puma_isa.Instr
module Program = Puma_isa.Program
module Node = Puma_sim.Node
module Rng = Puma_util.Rng
module Fixed = Puma_util.Fixed

let config = Config.sweetspot
let smem_words = config.Config.smem_bytes / 2

(* One channel: a unique (src, dst, fifo) carrying [widths] transfers in
   order. Unique fifo per channel keeps every channel single-sender, the
   shape the compiler emits; hazards then come only from in-flight
   pressure exceeding the FIFO depth. *)
type channel = { src : int; dst : int; fifo : int; widths : int array }

(* The program and, per receive, the output naming its landing words
   with the values they must hold: the payload of the matching send.
   Each tile's sends read consecutive words of a host-written constant
   block holding values unique across the program; receives land on
   distinct fresh words above the block. *)
let build_program ntiles channels =
  let block = 64 in
  let raw tile word = (tile * block) + word + 1 in
  let src_next = Array.make ntiles 0 in
  let land_next = Array.make ntiles block in
  let ops = Array.make ntiles [] in
  let push t i = ops.(t) <- i :: ops.(t) in
  let landings = ref [] in
  List.iter
    (fun c ->
      Array.iter
        (fun w ->
          let src = src_next.(c.src) in
          src_next.(c.src) <- src + w;
          assert (src + w <= block);
          push c.src
            (Instr.Send
               { mem_addr = src; fifo_id = c.fifo; target = c.dst; vec_width = w });
          let landing = land_next.(c.dst) in
          land_next.(c.dst) <- landing + w;
          assert (landing + w < smem_words);
          push c.dst
            (Instr.Receive
               { mem_addr = landing; fifo_id = c.fifo; count = 0; vec_width = w });
          let name = Printf.sprintf "r%d" (List.length !landings) in
          landings :=
            ( { Program.name; tile = c.dst; mem_addr = landing; length = w; offset = 0 },
              Array.init w (fun k ->
                  Fixed.to_float (Fixed.of_raw (raw c.src (src + k)))) )
            :: !landings)
        c.widths)
    channels;
  let tiles =
    Array.init ntiles (fun t ->
        {
          Program.tile_index = t;
          core_code = [||];
          tile_code = Array.of_list (List.rev (Instr.Halt :: ops.(t)));
          mvmu_images = [];
        })
  in
  let constants =
    List.init ntiles (fun t ->
        ( {
            Program.name = Printf.sprintf "c%d" t;
            tile = t;
            mem_addr = 0;
            length = block;
            offset = 0;
          },
          Array.init block (raw t) ))
  in
  let landings = List.rev !landings in
  ( { Program.config; tiles; inputs = []; outputs = List.map fst landings; constants },
    landings )

let random_channels rng =
  let ntiles = 2 + Rng.int rng 3 in
  let nchan = 1 + Rng.int rng 3 in
  let channels =
    List.init nchan (fun k ->
        let src = Rng.int rng ntiles in
        let dst = (src + 1 + Rng.int rng (ntiles - 1)) mod ntiles in
        let widths =
          Array.init (1 + Rng.int rng 6) (fun _ -> 1 + Rng.int rng 2)
        in
        { src; dst; fifo = k; widths })
  in
  (ntiles, channels)

(* Both loops complete [seed]'s program, and every receive lands the
   payload of the send it pairs with. *)
let delivers_in_order seed =
  let ntiles, channels = random_channels (Rng.create seed) in
  let p, expected = build_program ntiles channels in
  List.for_all
    (fun run ->
      let outputs = run (Node.create p) ~inputs:[] in
      List.for_all
        (fun ((b : Program.io_binding), v) -> List.assoc b.name outputs = v)
        expected)
    [ Node.run; Node.run_reference ]

let prop_every_program_in_order =
  QCheck.Test.make ~name:"every program delivers in order" ~count:120
    QCheck.(int_range 0 100_000)
    delivers_in_order

(* A seed whose program keeps more packets in flight on one channel
   than its receive FIFO holds, so a head is refused while a later
   packet on the same channel has already arrived. *)
let test_pinned_seed () =
  Alcotest.(check bool) "seed 4 delivers in order" true
    (delivers_in_order 4)

(* A flagged burst actually lists the channel with its widths, and the
   repaired form of the same shape would be clean: transfers capped at
   the fifo depth analyze hazard-free. *)
let test_hazard_shape () =
  let burst =
    [ { src = 0; dst = 1; fifo = 0; widths = [| 2; 1; 2; 1 |] } ]
  in
  let p, _ = build_program 2 burst in
  let hazards = Order.hazards p in
  Alcotest.(check int) "one hazardous channel" 1 (List.length hazards);
  let hz = List.hd hazards in
  Alcotest.(check int) "source tile" 0 hz.Order.hz_src;
  Alcotest.(check int) "destination tile" 1 hz.Order.hz_dst;
  Alcotest.(check int) "transfers" 4 (Array.length hz.Order.hz_transfers);
  Alcotest.(check int) "pressure" 4 hz.Order.hz_max_pressure;
  let shallow =
    [ { src = 0; dst = 1; fifo = 0; widths = [| 2; 1 |] } ]
  in
  Alcotest.(check int) "depth-bounded burst is clean" 0
    (List.length (Order.hazards (fst (build_program 2 shallow))))

(* The HB dump names cross-stream edges as I-ORDER infos. *)
let test_dump_hb () =
  let p, _ =
    build_program 2 [ { src = 0; dst = 1; fifo = 0; widths = [| 1 |] } ]
  in
  let r = Analyze.program ~dump_hb:true p in
  Alcotest.(check bool) "dump emits I-ORDER infos" true
    (List.exists (fun (d : Diag.t) -> d.code = "I-ORDER") r.Analyze.diags)

let () =
  Alcotest.run "order"
    [
      ( "hazards",
        [
          Alcotest.test_case "burst shape" `Quick test_hazard_shape;
          Alcotest.test_case "hb dump" `Quick test_dump_hb;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_every_program_in_order;
          Alcotest.test_case "pinned seed" `Quick test_pinned_seed;
        ] );
    ]
