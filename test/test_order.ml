(* Happens-before / ordering analyzer tests: the soundness contract of
   [Puma_analysis.Order] against the simulator. Random multi-tile
   send/receive programs are analyzed and then executed; a program the
   analyzer passes clean must never trip the receive width contract or
   the NoC's delivered-in-injection-order assertion, on either run loop.
   (The contrapositive — every runtime ordering crash was statically
   flagged — follows.) *)

module Analyze = Puma_analysis.Analyze
module Order = Puma_analysis.Order
module Diag = Puma_analysis.Diag
module Config = Puma_hwmodel.Config
module Instr = Puma_isa.Instr
module Program = Puma_isa.Program
module Network = Puma_noc.Network
module Node = Puma_sim.Node
module Rng = Puma_util.Rng

let config = Config.sweetspot
let smem_words = config.Config.smem_bytes / 2

(* One channel: a unique (src, dst, fifo) carrying [widths] transfers in
   order. Unique fifo per channel keeps every channel single-sender, the
   shape the compiler emits; hazards then come only from in-flight
   pressure exceeding the FIFO depth. *)
type channel = { src : int; dst : int; fifo : int; widths : int array }

let build_program ntiles channels =
  (* Send sources read a host-written constant block (words 0..15);
     receives land on distinct fresh words above it. *)
  let src_words = 16 in
  let land_next = Array.make ntiles (src_words + 1) in
  let ops = Array.make ntiles [] in
  let push t i = ops.(t) <- i :: ops.(t) in
  List.iter
    (fun c ->
      Array.iter
        (fun w ->
          push c.src
            (Instr.Send
               { mem_addr = 0; fifo_id = c.fifo; target = c.dst; vec_width = w });
          let landing = land_next.(c.dst) in
          land_next.(c.dst) <- landing + w;
          assert (landing + w < smem_words);
          push c.dst
            (Instr.Receive
               { mem_addr = landing; fifo_id = c.fifo; count = 0; vec_width = w }))
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
            length = src_words;
            offset = 0;
          },
          Array.init src_words (fun i -> i) ))
  in
  { Program.config; tiles; inputs = []; outputs = []; constants }

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

type outcome = Completed | Ordering_crash of string | Other_crash of string

let run_loop run p =
  let node = Node.create p in
  match ignore (run node ~inputs:[]) with
  | () -> Completed
  | exception Network.Reordered msg -> Ordering_crash msg
  | exception Invalid_argument msg
    when Puma_util.Strings.contains ~sub:"width" msg ->
      Ordering_crash msg
  | exception e -> Other_crash (Printexc.to_string e)

let sound (seed : int) =
  let rng = Rng.create seed in
  let ntiles, channels = random_channels rng in
  let p = build_program ntiles channels in
  let r = Analyze.program ~order:true p in
  let clean = r.Analyze.errors = 0 in
  List.for_all
    (fun run ->
      match run_loop run p with
      | Completed -> true
      | Ordering_crash _ -> not clean
      | Other_crash _ -> false)
    [ Node.run; Node.run_reference ]

let prop_clean_never_reorders =
  QCheck.Test.make ~name:"analyzer-clean programs never reorder" ~count:120
    QCheck.(int_range 0 100_000)
    sound

(* A flagged burst actually lists the channel with its widths, and the
   repaired form of the same shape would be clean: transfers capped at
   the fifo depth analyze hazard-free. *)
let test_hazard_shape () =
  let burst =
    [ { src = 0; dst = 1; fifo = 0; widths = [| 2; 1; 2; 1 |] } ]
  in
  let p = build_program 2 burst in
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
    (List.length (Order.hazards (build_program 2 shallow)))

(* The HB dump names cross-stream edges as I-ORDER infos. *)
let test_dump_hb () =
  let p =
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
      ("property", [ QCheck_alcotest.to_alcotest prop_clean_never_reorders ]);
    ]
