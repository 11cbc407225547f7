module B = Puma_graph.Builder
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng
module Config = Puma_hwmodel.Config
module Compile = Puma_compiler.Compile
module Node = Puma_sim.Node
module Metrics = Puma_sim.Metrics
module Energy = Puma_hwmodel.Energy

let config =
  {
    Config.default with
    mvmu_dim = 32;
    mvmus_per_core = 2;
    cores_per_tile = 2;
    tiles_per_node = 64;
    vfu_width = 4;
  }

let rng = Rng.create 11

let small_model () =
  let m = B.create "small" in
  let x = B.input m ~name:"x" ~len:48 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 48 48 0.1) in
  B.output m ~name:"y" (B.sigmoid m (B.mvm m w x));
  B.finish m

let compile g = (Compile.compile config g).Compile.program

let test_node_multiple_inferences () =
  let g = small_model () in
  let program = compile g in
  let node = Node.create program in
  let x1 = Tensor.vec_rand rng 48 1.0 and x2 = Tensor.vec_rand rng 48 1.0 in
  let y1 = List.assoc "y" (Node.run node ~inputs:[ ("x", x1) ]) in
  let y2 = List.assoc "y" (Node.run node ~inputs:[ ("x", x2) ]) in
  let y1' = List.assoc "y" (Node.run node ~inputs:[ ("x", x1) ]) in
  Alcotest.(check (array (float 1e-9))) "same input same output" y1 y1';
  Alcotest.(check bool) "different inputs differ" true (y1 <> y2)

let test_node_determinism () =
  let g = small_model () in
  let x = Tensor.vec_rand rng 48 1.0 in
  let run () =
    let node = Node.create (compile g) in
    let y = List.assoc "y" (Node.run node ~inputs:[ ("x", x) ]) in
    (y, Node.cycles node)
  in
  let y1, c1 = run () and y2, c2 = run () in
  Alcotest.(check (array (float 1e-9))) "outputs" y1 y2;
  Alcotest.(check int) "cycles" c1 c2

let test_node_cycles_accumulate () =
  let node = Node.create (compile (small_model ())) in
  let x = Tensor.vec_rand rng 48 1.0 in
  ignore (Node.run node ~inputs:[ ("x", x) ]);
  let c1 = Node.cycles node in
  ignore (Node.run node ~inputs:[ ("x", x) ]);
  Alcotest.(check bool) "accumulates" true (Node.cycles node > c1);
  Alcotest.(check bool) "roughly doubles" true
    (Float.abs (Float.of_int (Node.cycles node) -. (2.0 *. Float.of_int c1))
    < 0.5 *. Float.of_int c1)

let test_node_missing_input () =
  let node = Node.create (compile (small_model ())) in
  Alcotest.(check bool) "missing input" true
    (try
       ignore (Node.run node ~inputs:[]);
       false
     with Invalid_argument _ -> true)

let test_node_deadlock_detection () =
  (* A hand-built program whose only core blocks forever on an address
     nobody writes. *)
  let program =
    {
      Puma_isa.Program.config;
      tiles =
        [|
          {
            Puma_isa.Program.tile_index = 0;
            core_code =
              [|
                [|
                  Puma_isa.Instr.Load
                    { dest = Puma_isa.Operand.gpr (Puma_isa.Operand.layout config) 0;
                      addr = Imm_addr 100;
                      vec_width = 1;
                    };
                |];
              |];
            tile_code = [||];
            mvmu_images = [];
          };
        |];
      inputs = [];
      outputs = [];
      constants = [];
    }
  in
  let node = Node.create program in
  Alcotest.(check bool) "deadlock raised" true
    (try
       ignore (Node.run node ~inputs:[]);
       false
     with Node.Deadlock _ -> true)

let test_metrics () =
  let node = Node.create (compile (small_model ())) in
  ignore (Node.run node ~inputs:[ ("x", Tensor.vec_rand rng 48 1.0) ]);
  let m = Metrics.of_node node in
  Alcotest.(check bool) "cycles > 0" true (m.Metrics.cycles > 0);
  Alcotest.(check bool) "energy > 0" true (m.Metrics.energy_uj > 0.0);
  Alcotest.(check bool) "latency consistent" true
    (Float.abs
       (m.Metrics.latency_us
       -. (Float.of_int m.Metrics.cycles /. (config.frequency_ghz *. 1000.0)))
    < 1e-6);
  Alcotest.(check bool) "ops include mvms" true (m.Metrics.ops > 0.0);
  Alcotest.(check bool) "static energy charged" true
    (Energy.energy_pj (Node.energy node) Static > 0.0);
  Alcotest.(check int) "tiles used" 2 (max 2 m.Metrics.tiles_used)

let test_energy_scales_with_work () =
  let one = Node.create (compile (small_model ())) in
  ignore (Node.run one ~inputs:[ ("x", Tensor.vec_rand rng 48 1.0) ]);
  let e1 = Energy.total_pj (Node.energy one) in
  let two = Node.create (compile (small_model ())) in
  ignore (Node.run two ~inputs:[ ("x", Tensor.vec_rand rng 48 1.0) ]);
  ignore (Node.run two ~inputs:[ ("x", Tensor.vec_rand rng 48 1.0) ]);
  let e2 = Energy.total_pj (Node.energy two) in
  Alcotest.(check bool) "two runs cost about twice" true
    (e2 > 1.8 *. e1 && e2 < 2.2 *. e1)

let test_hand_rolled_loop_program () =
  (* A loop with scalar-register address arithmetic (the rolled-conv
     pattern): accumulate neighbouring input pairs over a 4-element sweep.
     Exercises Sreg_addr loads/stores, aluint and brn through the whole
     node path. *)
  let layout = Puma_isa.Operand.layout config in
  let source =
    "set s0, #0      ; input address\n\
     set s1, #8      ; output address\n\
     set s2, #0      ; counter\n\
     set s3, #4      ; bound\n\
     set s4, #1      ; one\n\
     load r0, @[s0], w=2\n\
     alu.add r2, r0, r1, w=1\n\
     store @[s1], r2, count=0, w=1\n\
     aluint.iadd s0, s0, s4\n\
     aluint.iadd s1, s1, s4\n\
     aluint.iadd s2, s2, s4\n\
     brn.blt s2, s3, 5\n\
     halt\n"
  in
  let code =
    match Puma_isa.Asm.parse_program layout source with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (* r0/r1 are consecutive registers: alu.add r2, r0, r1 sums the loaded
     pair. Rewrite register names against the layout. *)
  let program =
    {
      Puma_isa.Program.config;
      tiles =
        [|
          {
            Puma_isa.Program.tile_index = 0;
            core_code = [| code |];
            tile_code = [||];
            mvmu_images = [];
          };
        |];
      inputs = [ { Puma_isa.Program.name = "x"; tile = 0; mem_addr = 0; length = 5; offset = 0 } ];
      outputs = [ { Puma_isa.Program.name = "y"; tile = 0; mem_addr = 8; length = 4; offset = 0 } ];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn program;
  let node = Node.create program in
  let x = [| 0.5; -0.25; 1.0; 0.125; -0.5 |] in
  let y = List.assoc "y" (Node.run node ~inputs:[ ("x", x) ]) in
  let expected = Array.init 4 (fun i -> x.(i) +. x.(i + 1)) in
  Alcotest.(check bool) "loop computed pair sums" true
    (Tensor.vec_max_abs_diff expected y < 0.001)

let test_full_scale_image () =
  (* -8.0 quantizes to raw -32768, which the differential pair cannot
     hold: the node must compute exactly what a stack created from the
     same matrix computes (the clamp to -32767), on a private copy, and
     leave the program's image holding -32768. *)
  let layout = Puma_isa.Operand.layout config in
  let source =
    "load xin0[0], @0, w=32\n\
     mvm mask=0x01 filter=0 stride=0\n\
     copy r0, xout0[0], w=32\n\
     store @32, r0, count=0, w=32\n\
     halt\n"
  in
  let code =
    match Puma_isa.Asm.parse_program layout source with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let m =
    Tensor.mat_init 32 32 (fun i j ->
        if j = i then -8.0 else if j = (i + 1) mod 32 then 0.25 else 0.0)
  in
  let image = Puma_util.Fixed.image_of_mat m in
  let program =
    {
      Puma_isa.Program.config;
      tiles =
        [|
          {
            Puma_isa.Program.tile_index = 0;
            core_code = [| code |];
            tile_code = [||];
            mvmu_images = [ { core_index = 0; mvmu_index = 0; image } ];
          };
        |];
      inputs = [ { Puma_isa.Program.name = "x"; tile = 0; mem_addr = 0; length = 32; offset = 0 } ];
      outputs = [ { Puma_isa.Program.name = "y"; tile = 0; mem_addr = 32; length = 32; offset = 0 } ];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn program;
  let x = Array.init 32 (fun j -> if j mod 2 = 0 then 0.75 else -0.5) in
  let y = List.assoc "y" (Node.run (Node.create program) ~inputs:[ ("x", x) ]) in
  let module Fixed = Puma_util.Fixed in
  let stack = Puma_xbar.Bitslice.create config m in
  let want =
    Puma_xbar.Bitslice.mvm_raw stack
      (Array.map (fun v -> Fixed.to_raw (Fixed.of_float v)) x)
    |> Array.map (fun a -> Fixed.to_float (Fixed.of_acc a))
  in
  Alcotest.(check (array (float 0.0))) "node = Bitslice.create" want y;
  Alcotest.(check int) "image still holds -32768" Fixed.min_raw
    (Fixed.image_raw image 0)

let test_session_facade () =
  let g = small_model () in
  let session = Puma.Session.create ~config g in
  let x = Tensor.vec_rand rng 48 1.0 in
  let got = List.assoc "y" (Puma.Session.infer session [ ("x", x) ]) in
  let want = List.assoc "y" (Puma.reference g [ ("x", x) ]) in
  Alcotest.(check bool) "facade matches reference" true
    (Tensor.vec_max_abs_diff want got < 0.03);
  let m = Puma.Session.metrics session in
  Alcotest.(check bool) "metrics available" true (m.Puma_sim.Metrics.cycles > 0)

let test_session_infer_batch () =
  let g = small_model () in
  let session = Puma.Session.create ~config g in
  let xs = List.init 4 (fun _ -> [ ("x", Tensor.vec_rand rng 48 1.0) ]) in
  let outs = Puma.Session.infer_batch session xs in
  Alcotest.(check int) "one output set per inference" 4 (List.length outs);
  (* Each element matches a fresh single-inference run. *)
  List.iter2
    (fun inputs out ->
      let want = List.assoc "y" (Puma.Session.infer session inputs) in
      Alcotest.(check (array (float 1e-9))) "batch element" want
        (List.assoc "y" out))
    xs outs

let () =
  Alcotest.run "sim"
    [
      ( "node",
        [
          Alcotest.test_case "multiple inferences" `Quick test_node_multiple_inferences;
          Alcotest.test_case "determinism" `Quick test_node_determinism;
          Alcotest.test_case "cycles accumulate" `Quick test_node_cycles_accumulate;
          Alcotest.test_case "missing input" `Quick test_node_missing_input;
          Alcotest.test_case "deadlock detection" `Quick test_node_deadlock_detection;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "energy scales" `Quick test_energy_scales_with_work;
        ] );
      ( "hand-program",
        [
          Alcotest.test_case "rolled loop" `Quick test_hand_rolled_loop_program;
          Alcotest.test_case "full-scale image" `Quick test_full_scale_image;
        ] );
      ( "facade",
        [
          Alcotest.test_case "session" `Quick test_session_facade;
          Alcotest.test_case "infer batch" `Quick test_session_infer_batch;
        ] );
    ]
