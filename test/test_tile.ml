module Shared_mem = Puma_tile.Shared_mem
module Recv_buffer = Puma_tile.Recv_buffer
module Tile = Puma_tile.Tile
module Core = Puma_arch.Core
module Instr = Puma_isa.Instr
module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy

let small_config =
  { Config.default with mvmu_dim = 16; cores_per_tile = 2; num_fifos = 4 }

(* ---- Shared memory attribute protocol (Figure 6) ---- *)

let test_smem_counted_protocol () =
  let m = Shared_mem.create ~words:16 in
  (* Invalid word blocks readers. *)
  Alcotest.(check bool) "read invalid" true (Shared_mem.read m ~addr:0 ~width:1 = None);
  (* Counted write for 2 consumers. *)
  Alcotest.(check bool) "write" true
    (Shared_mem.write m ~addr:0 ~values:[| 7 |] ~count:2);
  (* Producer blocks while consumers pending. *)
  Alcotest.(check bool) "overwrite blocked" false
    (Shared_mem.write m ~addr:0 ~values:[| 9 |] ~count:1);
  Alcotest.(check bool) "read 1" true (Shared_mem.read m ~addr:0 ~width:1 = Some [| 7 |]);
  Alcotest.(check int) "one read left" 1 (Shared_mem.state m ~addr:0);
  Alcotest.(check bool) "read 2" true (Shared_mem.read m ~addr:0 ~width:1 = Some [| 7 |]);
  (* Consumed: invalid again, writable again. *)
  Alcotest.(check int) "invalidated" (-1) (Shared_mem.state m ~addr:0);
  Alcotest.(check bool) "read 3 blocks" true (Shared_mem.read m ~addr:0 ~width:1 = None);
  Alcotest.(check bool) "rewrite ok" true
    (Shared_mem.write m ~addr:0 ~values:[| 9 |] ~count:1)

let test_smem_sticky () =
  let m = Shared_mem.create ~words:8 in
  Shared_mem.host_write m ~addr:2 ~values:[| 1; 2; 3 |];
  for _ = 1 to 5 do
    Alcotest.(check bool) "sticky read" true
      (Shared_mem.read m ~addr:2 ~width:3 = Some [| 1; 2; 3 |])
  done;
  (* Sticky words may be overwritten freely. *)
  Alcotest.(check bool) "sticky overwrite" true
    (Shared_mem.write m ~addr:2 ~values:[| 9 |] ~count:0)

let test_smem_partial_validity_blocks_vector_read () =
  let m = Shared_mem.create ~words:8 in
  ignore (Shared_mem.write m ~addr:0 ~values:[| 1; 2 |] ~count:1);
  Alcotest.(check bool) "wider read blocks" true
    (Shared_mem.read m ~addr:0 ~width:3 = None);
  (* The blocked read must not have consumed the valid words. *)
  Alcotest.(check int) "count preserved" 1 (Shared_mem.state m ~addr:0)

let test_smem_peek_does_not_consume () =
  let m = Shared_mem.create ~words:4 in
  ignore (Shared_mem.write m ~addr:0 ~values:[| 5 |] ~count:1);
  Alcotest.(check bool) "peek" true (Shared_mem.peek m ~addr:0 ~width:1 = Some [| 5 |]);
  Alcotest.(check int) "not consumed" 1 (Shared_mem.state m ~addr:0)

let test_smem_bounds () =
  let m = Shared_mem.create ~words:4 in
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Shared_mem.read m ~addr:3 ~width:2);
       false
     with Invalid_argument _ -> true)

(* A blocked access touches nothing, wherever in the range the word that
   blocks it sits: data, states and generation are unchanged. *)
let test_smem_blocked_access_is_pure () =
  let addr = 1 and width = 5 in
  let snapshot m =
    ( Shared_mem.generation m,
      List.init (Shared_mem.words m) (fun a ->
          (Shared_mem.state m ~addr:a, Shared_mem.peek m ~addr:a ~width:1)) )
  in
  let check_blocked name m f =
    let before = snapshot m in
    Alcotest.(check bool) (name ^ " blocks") true (f ());
    Alcotest.(check bool) (name ^ " touches nothing") true (snapshot m = before)
  in
  List.iter
    (fun blocker ->
      let where = Printf.sprintf "blocker at %d" blocker in
      (* Loads: every word valid and counted but the blocker. *)
      let m = Shared_mem.create ~words:8 in
      for a = addr to addr + width - 1 do
        if a <> blocker then
          assert (Shared_mem.write m ~addr:a ~values:[| 10 + a |] ~count:2)
      done;
      let dst = Array.make 8 (-1) in
      check_blocked ("read, " ^ where) m (fun () ->
          Shared_mem.read m ~addr ~width = None);
      check_blocked ("read_into, " ^ where) m (fun () ->
          not (Shared_mem.read_into m ~addr ~width ~dst ~dst_pos:2));
      Alcotest.(check bool) "dst untouched" true (Array.for_all (( = ) (-1)) dst);
      check_blocked ("peek, " ^ where) m (fun () ->
          Shared_mem.peek m ~addr ~width = None);
      (* Stores: every word sticky but the blocker, which awaits a reader. *)
      let m = Shared_mem.create ~words:8 in
      for a = addr to addr + width - 1 do
        assert (
          Shared_mem.write m ~addr:a ~values:[| a |]
            ~count:(if a = blocker then 1 else 0))
      done;
      let src = Array.init 8 (fun i -> 100 + i) in
      check_blocked ("write, " ^ where) m (fun () ->
          not (Shared_mem.write m ~addr ~values:(Array.sub src 0 width) ~count:1));
      check_blocked ("write_from, " ^ where) m (fun () ->
          not (Shared_mem.write_from m ~addr ~src ~src_pos:3 ~width ~count:2)))
    [ addr; addr + (width / 2); addr + width - 1 ]

(* ---- Receive buffer ---- *)

let test_recv_fifo_order () =
  let rb = Recv_buffer.create ~num_fifos:2 ~depth:3 in
  let pkt i = { Recv_buffer.src_tile = 0; payload = [| i |] } in
  Alcotest.(check bool) "push 1" true (Recv_buffer.push rb ~fifo:0 (pkt 1));
  Alcotest.(check bool) "push 2" true (Recv_buffer.push rb ~fifo:0 (pkt 2));
  Alcotest.(check int) "occupancy" 2 (Recv_buffer.occupancy rb ~fifo:0);
  (match Recv_buffer.pop rb ~fifo:0 with
  | Some p -> Alcotest.(check int) "fifo order" 1 p.payload.(0)
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "after pop" 1 (Recv_buffer.occupancy rb ~fifo:0)

let test_recv_backpressure () =
  let rb = Recv_buffer.create ~num_fifos:1 ~depth:2 in
  let pkt = { Recv_buffer.src_tile = 0; payload = [| 0 |] } in
  Alcotest.(check bool) "1" true (Recv_buffer.push rb ~fifo:0 pkt);
  Alcotest.(check bool) "2" true (Recv_buffer.push rb ~fifo:0 pkt);
  Alcotest.(check bool) "full" false (Recv_buffer.push rb ~fifo:0 pkt)

let test_recv_independent_fifos () =
  let rb = Recv_buffer.create ~num_fifos:2 ~depth:1 in
  let pkt i = { Recv_buffer.src_tile = i; payload = [| i |] } in
  ignore (Recv_buffer.push rb ~fifo:0 (pkt 10));
  ignore (Recv_buffer.push rb ~fifo:1 (pkt 20));
  Alcotest.(check int) "total" 2 (Recv_buffer.total_occupancy rb);
  (match Recv_buffer.pop rb ~fifo:1 with
  | Some p -> Alcotest.(check int) "fifo 1" 20 p.src_tile
  | None -> Alcotest.fail "empty")

(* ---- Tile control unit ---- *)

let make_tile ?(tile_code = [||]) () =
  let energy = Energy.create small_config in
  Tile.create ~smem_words:(small_config.smem_bytes / 2) small_config ~index:0
    ~energy ~core_code:[||] ~tile_code

let test_tcu_send_blocks_until_valid () =
  let tile =
    make_tile
      ~tile_code:
        [| Instr.Send { mem_addr = 0; fifo_id = 1; target = 3; vec_width = 2 } |]
      ()
  in
  Alcotest.(check bool) "blocked" true (Tile.step_tcu tile ~now:0 = Core.r_blocked_read);
  Tile.host_write tile ~addr:0 ~values:[| 4; 5 |];
  (match Tile.step_tcu tile ~now:10 with
  | r when r >= 0 -> ()
  | _ -> Alcotest.fail "expected retire");
  match Tile.pop_outgoing tile with
  | Some o ->
      Alcotest.(check int) "target" 3 o.target_tile;
      Alcotest.(check int) "fifo" 1 o.fifo_id;
      Alcotest.(check (array int)) "payload" [| 4; 5 |] o.payload;
      Alcotest.(check bool) "issue time" true (o.issue_cycle > 10)
  | None -> Alcotest.fail "no outgoing"

let test_tcu_receive_blocks_until_packet () =
  let tile =
    make_tile
      ~tile_code:
        [| Instr.Receive { mem_addr = 4; fifo_id = 0; count = 1; vec_width = 2 } |]
      ()
  in
  Alcotest.(check bool) "blocked" true (Tile.step_tcu tile ~now:0 = Core.r_blocked_recv);
  Alcotest.(check bool) "delivered" true
    (Tile.deliver tile ~fifo:0 ~src_tile:2 ~payload:[| 8; 9 |]);
  (match Tile.step_tcu tile ~now:0 with
  | r when r >= 0 -> ()
  | _ -> Alcotest.fail "expected retire");
  Alcotest.(check bool) "stored with count" true
    (Tile.host_read tile ~addr:4 ~width:2 = Some [| 8; 9 |])

let test_tcu_halts () =
  let tile = make_tile ~tile_code:[| Instr.Halt |] () in
  Alcotest.(check bool) "halted" true (Tile.step_tcu tile ~now:0 = Core.r_halted);
  Alcotest.(check bool) "all halted" true (Tile.all_halted tile)

let test_tcu_rejects_core_instr () =
  let tile = make_tile ~tile_code:[| Instr.Jmp { pc = 0 } |] () in
  Alcotest.(check bool) "jmp rejected" true
    (try
       ignore (Tile.step_tcu tile ~now:0);
       false
     with Invalid_argument _ -> true)

let test_tile_reset () =
  let tile =
    make_tile
      ~tile_code:
        [| Instr.Send { mem_addr = 0; fifo_id = 0; target = 1; vec_width = 1 } |]
      ()
  in
  Tile.host_write tile ~addr:0 ~values:[| 1 |];
  ignore (Tile.step_tcu tile ~now:0);
  Alcotest.(check bool) "halted after stream" true
    (Tile.step_tcu tile ~now:1 = Core.r_halted);
  Tile.reset tile;
  (match Tile.step_tcu tile ~now:2 with
  | r when r >= 0 -> ()
  | _ -> Alcotest.fail "expected re-run after reset")

let test_tile_receive_width_mismatch () =
  let tile =
    make_tile
      ~tile_code:
        [| Instr.Receive { mem_addr = 0; fifo_id = 0; count = 1; vec_width = 3 } |]
      ()
  in
  ignore (Tile.deliver tile ~fifo:0 ~src_tile:1 ~payload:[| 1 |]);
  Alcotest.(check bool) "width mismatch rejected" true
    (try
       ignore (Tile.step_tcu tile ~now:0);
       false
     with Invalid_argument _ -> true)

(* ---- Property: the attribute protocol against a reference model ----

   The model keeps the paper's two attributes per word, a valid bit and a
   consumer count; [Shared_mem.state] must be their one-int encoding, and
   both blocker scans must name the model's first blocking word. *)

type model_word = { mutable mvalid : bool; mutable mcount : int; mutable mdata : int }

let prop_smem_matches_model =
  QCheck.Test.make ~name:"shared memory matches reference model" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Puma_util.Rng.create (seed + 1) in
      let words = 8 in
      let sut = Shared_mem.create ~words in
      let model =
        Array.init words (fun _ -> { mvalid = false; mcount = 0; mdata = 0 })
      in
      let ok = ref true in
      let first_model bad addr width =
        let rec go k =
          if k >= addr + width then -1 else if bad model.(k) then k else go (k + 1)
        in
        go addr
      in
      for _ = 1 to 100 do
        let addr = Puma_util.Rng.int rng words in
        let width = 1 + Puma_util.Rng.int rng (words - addr) in
        if
          Shared_mem.read_blocker sut ~addr ~width
          <> first_model (fun w -> not w.mvalid) addr width
          || Shared_mem.write_blocker sut ~addr ~width
             <> first_model (fun w -> w.mvalid && w.mcount > 0) addr width
        then ok := false;
        match Puma_util.Rng.int rng 3 with
        | 0 ->
            (* write *)
            let count = Puma_util.Rng.int rng 3 in
            let values =
              Array.init width (fun _ -> Puma_util.Rng.int rng 1000)
            in
            let model_allowed =
              count = 0
              || Array.for_all
                   (fun k -> not (model.(k).mvalid && model.(k).mcount > 0))
                   (Array.init width (fun i -> addr + i))
            in
            let got = Shared_mem.write sut ~addr ~values ~count in
            if got <> model_allowed then ok := false;
            if got then
              Array.iteri
                (fun i v ->
                  let w = model.(addr + i) in
                  w.mdata <- v;
                  w.mvalid <- true;
                  w.mcount <- count)
                values
        | 1 -> (
            (* read *)
            let model_ready =
              Array.for_all
                (fun k -> model.(k).mvalid)
                (Array.init width (fun i -> addr + i))
            in
            match Shared_mem.read sut ~addr ~width with
            | None -> if model_ready then ok := false
            | Some values ->
                if not model_ready then ok := false
                else
                  Array.iteri
                    (fun i v ->
                      let w = model.(addr + i) in
                      if v <> w.mdata then ok := false;
                      if w.mcount > 0 then begin
                        w.mcount <- w.mcount - 1;
                        if w.mcount = 0 then w.mvalid <- false
                      end)
                    values)
        | _ ->
            (* peek must never change state *)
            ignore (Shared_mem.peek sut ~addr ~width)
      done;
      (* Final states agree. *)
      for k = 0 to words - 1 do
        let w = model.(k) in
        if Shared_mem.state sut ~addr:k <> if w.mvalid then w.mcount else -1
        then ok := false
      done;
      !ok)

(* ---- Tiles sized to the program's footprint ----

   [Node.create] gives each tile only the shared-memory words its
   program can touch ({!Puma_isa.Program.footprint}), the whole capacity
   when a register-indirect access could reach anywhere. *)

module Program = Puma_isa.Program
module Node = Puma_sim.Node

let capacity = small_config.smem_bytes / 2
let gpr k = Puma_isa.Operand.gpr (Puma_isa.Operand.layout small_config) k
let smem_words node i = Shared_mem.words (Tile.shared_mem (Node.tile node i))

let one_tile ?(inputs = []) ?(outputs = []) code =
  {
    Program.config = small_config;
    tiles =
      [|
        {
          Program.tile_index = 0;
          core_code = [| Array.of_list (code @ [ Instr.Halt ]) |];
          tile_code = [||];
          mvmu_images = [];
        };
      |];
    inputs;
    outputs;
    constants = [];
  }

let test_zoo_tiles_sized_to_footprint () =
  List.iter
    (fun (name, net) ->
      let p =
        (Puma_compiler.Compile.compile Config.sweetspot
           (Puma_nn.Network.build_graph net))
          .Puma_compiler.Compile.program
      in
      let node = Node.create p in
      let footprint = Program.footprint p in
      Array.iteri
        (fun i _ ->
          Alcotest.(check int)
            (Printf.sprintf "%s tile %d" name i)
            (footprint i) (smem_words node i);
          Alcotest.(check bool)
            (Printf.sprintf "%s tile %d below capacity" name i)
            true
            (footprint i < Config.sweetspot.smem_bytes / 2))
        p.Program.tiles)
    [ ("mlp", Puma_nn.Models.mini_mlp); ("lstm", Puma_nn.Models.mini_lstm) ]

let test_indirect_access_gets_capacity () =
  let p =
    one_tile
      [
        Instr.Set_sreg { dest = 0; imm = 4 };
        Instr.Load { dest = gpr 0; addr = Instr.Sreg_addr 0; vec_width = 1 };
      ]
  in
  Alcotest.(check int) "full capacity" capacity (smem_words (Node.create p) 0)

let test_bindings_past_last_access () =
  let binding name mem_addr length =
    { Program.name; tile = 0; mem_addr; length; offset = 0 }
  in
  let p =
    one_tile
      ~inputs:[ binding "x" 200 4 ]
      ~outputs:[ binding "y" 100 8 ]
      [
        Instr.Set { dest = gpr 0; imm = 1 };
        Instr.Store
          { src = gpr 0; addr = Instr.Imm_addr 0; count = 0; vec_width = 1 };
      ]
  in
  let node = Node.create p in
  Alcotest.(check int) "covers the input binding" 204 (smem_words node 0);
  let tile = Node.tile node 0 in
  Tile.host_write tile ~addr:200 ~values:[| 1; 2; 3; 4 |];
  Alcotest.(check bool) "input readable" true
    (Tile.host_read tile ~addr:200 ~width:4 = Some [| 1; 2; 3; 4 |]);
  Alcotest.(check bool) "output words present, not yet written" true
    (Tile.host_read tile ~addr:100 ~width:8 = None)

let test_access_past_capacity () =
  (* The same exception a full-capacity memory raises. *)
  let expected =
    try
      ignore
        (Shared_mem.read (Shared_mem.create ~words:capacity)
           ~addr:(capacity - 1) ~width:2);
      "no exception"
    with Invalid_argument m -> m
  in
  let p =
    one_tile
      [
        Instr.Load
          { dest = gpr 0; addr = Instr.Imm_addr (capacity - 1); vec_width = 2 };
      ]
  in
  let node = Node.create p in
  Alcotest.(check int) "capped at capacity" capacity (smem_words node 0);
  let got =
    try
      ignore (Node.run node ~inputs:[]);
      "no exception"
    with Invalid_argument m -> m
  in
  Alcotest.(check string) "Invalid_argument" expected got

let () =
  Alcotest.run "tile"
    [
      ( "shared-mem",
        [
          Alcotest.test_case "counted protocol" `Quick test_smem_counted_protocol;
          Alcotest.test_case "sticky" `Quick test_smem_sticky;
          Alcotest.test_case "partial validity" `Quick
            test_smem_partial_validity_blocks_vector_read;
          Alcotest.test_case "peek" `Quick test_smem_peek_does_not_consume;
          Alcotest.test_case "bounds" `Quick test_smem_bounds;
          Alcotest.test_case "blocked access is pure" `Quick
            test_smem_blocked_access_is_pure;
        ] );
      ( "recv-buffer",
        [
          Alcotest.test_case "fifo order" `Quick test_recv_fifo_order;
          Alcotest.test_case "backpressure" `Quick test_recv_backpressure;
          Alcotest.test_case "independent fifos" `Quick test_recv_independent_fifos;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_smem_matches_model ]);
      ( "tcu",
        [
          Alcotest.test_case "send blocks" `Quick test_tcu_send_blocks_until_valid;
          Alcotest.test_case "receive blocks" `Quick test_tcu_receive_blocks_until_packet;
          Alcotest.test_case "halts" `Quick test_tcu_halts;
          Alcotest.test_case "rejects core instr" `Quick test_tcu_rejects_core_instr;
          Alcotest.test_case "reset" `Quick test_tile_reset;
          Alcotest.test_case "width mismatch" `Quick test_tile_receive_width_mismatch;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "zoo tiles" `Quick test_zoo_tiles_sized_to_footprint;
          Alcotest.test_case "indirect access" `Quick
            test_indirect_access_gets_capacity;
          Alcotest.test_case "bindings past last access" `Quick
            test_bindings_past_last_access;
          Alcotest.test_case "access past capacity" `Quick
            test_access_past_capacity;
        ] );
    ]
