module G = Puma_graph.Graph
module B = Puma_graph.Builder
module Ref_exec = Puma_graph.Ref_exec
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng
module Config = Puma_hwmodel.Config
module Compile = Puma_compiler.Compile
module Tiling = Puma_compiler.Tiling
module Lgraph = Puma_compiler.Lgraph
module Partition = Puma_compiler.Partition
module Schedule = Puma_compiler.Schedule
module Instr = Puma_isa.Instr
module Program = Puma_isa.Program

(* A small config keeps compiled programs multi-core/multi-tile even for
   tiny test graphs. *)
let tiny_config =
  {
    Config.default with
    mvmu_dim = 32;
    mvmus_per_core = 2;
    cores_per_tile = 2;
    tiles_per_node = 64;
    vfu_width = 4;
  }

let compile ?options ?(config = tiny_config) g = Compile.compile ?options config g

let run_program program inputs =
  let node = Puma_sim.Node.create program in
  Puma_sim.Node.run node ~inputs

let check_against_reference ?(tol = 0.03) ?options ?config g inputs =
  let expected = Ref_exec.run g inputs in
  let result = compile ?options ?config g in
  (* Every compiled program must pass the static checker. *)
  (match Puma_isa.Check.diagnose result.Compile.program with
  | [] -> ()
  | ds ->
      Alcotest.fail
        (String.concat "; " (List.map Puma_isa.Diag.to_string ds)));
  let got = run_program result.Compile.program inputs in
  List.iter
    (fun (name, want) ->
      match List.assoc_opt name got with
      | None -> Alcotest.fail (Printf.sprintf "missing output %s" name)
      | Some have ->
          Alcotest.(check int)
            (Printf.sprintf "%s length" name)
            (Array.length want) (Array.length have);
          let err = Tensor.vec_max_abs_diff want have in
          Alcotest.(check bool)
            (Printf.sprintf "%s max err %.5f" name err)
            true (err <= tol))
    expected;
  result

(* ---- Tiling ---- *)

let test_tiling_segments () =
  Alcotest.(check int) "70/32" 3 (Tiling.segment_count ~dim:32 70);
  Alcotest.(check int) "64/32" 2 (Tiling.segment_count ~dim:32 64);
  Alcotest.(check int) "1/32" 1 (Tiling.segment_count ~dim:32 1)

let test_tiling_slot_reuse () =
  (* Two MVMs on the same matrix must share slots (weight reuse). *)
  let m = B.create "reuse" in
  let x = B.input m ~name:"x" ~len:40 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_create 40 40) in
  let h = B.tanh m (B.mvm m w x) in
  B.output m ~name:"y" (B.mvm m w h);
  let g = B.finish m in
  let lg = Tiling.lower ~dim:32 g in
  (* 40x40 over 32 -> 2x2 = 4 slots, not 8. *)
  Alcotest.(check int) "slots shared" 4 (Lgraph.num_slots lg)

(* Each slot's image is its block, quantized once at tiling: equal to
   an independent quantization of a zero-padded block built here, and the
   very strings the compiled program programs into its MVMUs. *)
let test_tiling_slot_images () =
  let m = B.create "ragged" in
  let x = B.input m ~name:"x" ~len:70 in
  let rng = Rng.create 26 in
  let w1 = Tensor.mat_rand rng 150 70 0.5 and w2 = Tensor.mat_rand rng 14 150 0.5 in
  let h = B.relu m (B.mvm m (B.const_matrix m ~name:"W1" w1) x) in
  B.output m ~name:"y" (B.mvm m (B.const_matrix m ~name:"W2" w2) h);
  let g = B.finish m in
  List.iter
    (fun dim ->
      let lg = Tiling.lower ~dim g in
      let expect (s : Lgraph.slot) =
        let src = if s.Lgraph.matrix = 0 then w1 else w2 in
        Puma_util.Fixed.image_of_mat
          (Tensor.mat_init dim dim (fun i j ->
               let i = (s.row_block * dim) + i and j = (s.col_block * dim) + j in
               if i < src.Tensor.rows && j < src.Tensor.cols then Tensor.get src i j
               else 0.0))
      in
      let slots = Array.to_list (Lgraph.slots lg) in
      let blocks n = (n + dim - 1) / dim in
      Alcotest.(check int) (Printf.sprintf "dim %d slots" dim)
        ((blocks 150 * blocks 70) + (blocks 14 * blocks 150))
        (List.length slots);
      List.iter
        (fun (s : Lgraph.slot) ->
          Alcotest.(check bool)
            (Printf.sprintf "dim %d slot %d image" dim s.slot_id)
            true (String.equal s.image (expect s)))
        slots;
      let r = compile ~config:{ Config.sweetspot with mvmu_dim = dim } g in
      let programmed =
        Array.to_list r.Compile.program.Program.tiles
        |> List.concat_map (fun (t : Program.tile_program) ->
               List.map (fun (i : Program.mvmu_image) -> i.image) t.mvmu_images)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "dim %d programmed images" dim)
        (List.sort compare (List.map expect slots))
        (List.sort compare programmed))
    [ 64; 128 ]

let test_tiling_mvm_adder_tree () =
  let m = B.create "wide" in
  let x = B.input m ~name:"x" ~len:100 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_create 32 100) in
  B.output m ~name:"y" (B.mvm m w x);
  let g = B.finish m in
  let lg = Tiling.lower ~dim:32 g in
  (* 4 column blocks -> 4 L_mvm partials + 3 adds. *)
  let mvms = ref 0 and adds = ref 0 in
  Array.iter
    (fun (n : Lgraph.lnode) ->
      match n.op with
      | Lgraph.L_mvm _ -> incr mvms
      | Lgraph.L_binop G.Add -> incr adds
      | _ -> ())
    (Lgraph.nodes lg);
  Alcotest.(check int) "partials" 4 !mvms;
  Alcotest.(check int) "adder tree" 3 !adds

let test_tiling_levels_and_order () =
  let m = B.create "lv" in
  let x = B.input m ~name:"x" ~len:64 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_create 64 64) in
  B.output m ~name:"y" (B.relu m (B.mvm m w x));
  let lg = Tiling.lower ~dim:32 (B.finish m) in
  let order = Lgraph.reverse_postorder lg in
  let pos = Array.make (Lgraph.num_nodes lg) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  Array.iter
    (fun (n : Lgraph.lnode) ->
      Array.iter
        (fun p -> Alcotest.(check bool) "topo" true (pos.(p) < pos.(n.id)))
        n.preds)
    (Lgraph.nodes lg);
  let levels = Lgraph.levels lg in
  Array.iter
    (fun (n : Lgraph.lnode) ->
      Array.iter
        (fun p ->
          Alcotest.(check bool) "level increases" true (levels.(p) < levels.(n.id)))
        n.preds)
    (Lgraph.nodes lg)

(* ---- Partition ---- *)

let lower_demo () =
  let m = B.create "demo" in
  let x = B.input m ~name:"x" ~len:96 in
  let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_create 96 96) in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_create 64 96) in
  let h = B.sigmoid m (B.mvm m w1 x) in
  B.output m ~name:"y" (B.mvm m w2 h);
  Tiling.lower ~dim:32 (B.finish m)

let test_partition_capacity () =
  let lg = lower_demo () in
  let part = Partition.partition tiny_config Partition.Locality lg in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (t, c, m) ->
      Alcotest.(check bool) "unique placement" false (Hashtbl.mem seen (t, c, m));
      Hashtbl.replace seen (t, c, m) ();
      Alcotest.(check bool) "mvmu in range" true (m < tiny_config.mvmus_per_core);
      Alcotest.(check bool) "core in range" true (c < tiny_config.cores_per_tile))
    part.Partition.slot_mvmu;
  Alcotest.(check bool) "tiles used > 1" true (part.Partition.tiles_used > 1)

let test_partition_spills_to_more_nodes () =
  (* One MVMU per node: a multi-slot model must span several nodes. *)
  let small =
    { tiny_config with tiles_per_node = 1; cores_per_tile = 1; mvmus_per_core = 1 }
  in
  let lg = lower_demo () in
  let part = Partition.partition small Partition.Locality lg in
  Alcotest.(check bool) "uses tiles beyond one node" true
    (part.Partition.tiles_used > small.tiles_per_node)

(* Partition's budgets are diagnostics with stable codes, raised as
   [Failure]: MLPL4's 324 crossbar blocks fit neither one 256-MVMU node
   nor 64 one-MVMU nodes. *)
let test_partition_diagnostics () =
  let lg =
    Tiling.lower ~dim:128 (Puma_nn.Network.build_graph Puma_nn.Models.mlp_l4)
  in
  let expect code ?cluster config =
    match Partition.partition ?cluster config Partition.Locality lg with
    | _ -> Alcotest.failf "expected %s" code
    | exception Failure msg ->
        Alcotest.(check bool) (Printf.sprintf "%s in %S" code msg) true
          (String.starts_with ~prefix:(Printf.sprintf "error[%s]" code) msg)
  in
  expect "E-NODES"
    ~cluster:{ Partition.nodes = 1; scheme = Pipelined }
    { Config.sweetspot with tiles_per_node = 16 };
  expect "E-MAXNODES"
    { Config.sweetspot with tiles_per_node = 1; cores_per_tile = 1; mvmus_per_core = 1 }

let test_e2e_multi_node () =
  (* Two tiles per node force the second layer onto another node; results
     stay exact and the off-chip link shows up in latency and energy. *)
  let cross = { tiny_config with tiles_per_node = 2 } in
  let single = { tiny_config with tiles_per_node = 64 } in
  let build () =
    let m = B.create "mn" in
    let x = B.input m ~name:"x" ~len:128 in
    let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_rand (Rng.create 2) 128 128 0.08) in
    let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand (Rng.create 3) 96 128 0.08) in
    B.output m ~name:"y" (B.relu m (B.mvm m w2 (B.sigmoid m (B.mvm m w1 x))));
    B.finish m
  in
  let inputs = [ ("x", Tensor.vec_rand (Rng.create 4) 128 1.0) ] in
  let g = build () in
  ignore (check_against_reference ~config:cross g inputs);
  let run cfg =
    let r = compile ~config:cfg g in
    let node = Puma_sim.Node.create r.Compile.program in
    ignore (Puma_sim.Node.run node ~inputs);
    node
  in
  let multi = run cross and mono = run single in
  Alcotest.(check bool) "off-chip energy charged" true
    (Puma_hwmodel.Energy.count (Puma_sim.Node.energy multi) Offchip > 0);
  Alcotest.(check int) "no off-chip when one node" 0
    (Puma_hwmodel.Energy.count (Puma_sim.Node.energy mono) Offchip);
  Alcotest.(check bool) "crossing nodes costs cycles" true
    (Puma_sim.Node.cycles multi > Puma_sim.Node.cycles mono)

let test_partition_locality_beats_random () =
  let lg = lower_demo () in
  let loc = Partition.partition tiny_config Partition.Locality lg in
  let rnd = Partition.partition tiny_config (Partition.Random 3) lg in
  let le = Partition.edge_stats loc lg and re = Partition.edge_stats rnd lg in
  let cost (e : Partition.edge_stats) = e.cross_core + (4 * e.cross_tile) in
  Alcotest.(check bool)
    (Printf.sprintf "locality %d <= random %d" (cost le) (cost re))
    true
    (cost le <= cost re)

(* ---- Schedule / coalescing ---- *)

let test_schedule_coalescing_constraints () =
  let lg = lower_demo () in
  let part = Partition.partition tiny_config Partition.Locality lg in
  let sched = Schedule.build ~coalesce:true lg part in
  Array.iter
    (fun item ->
      match item with
      | Schedule.Mvm_group ms ->
          Alcotest.(check bool) "group size" true
            (Array.length ms >= 1 && Array.length ms <= tiny_config.mvmus_per_core);
          (* Distinct MVMUs within a group. *)
          let mvmus =
            Array.map
              (fun id ->
                match (Lgraph.node lg id).Lgraph.op with
                | Lgraph.L_mvm { slot } -> Partition.mvmu_of_slot part slot
                | _ -> Alcotest.fail "non-mvm in group")
              ms
          in
          let sorted = Array.copy mvmus in
          Array.sort compare sorted;
          for i = 1 to Array.length sorted - 1 do
            Alcotest.(check bool) "distinct mvmus" true (sorted.(i) <> sorted.(i - 1))
          done
      | Schedule.Single _ -> ())
    sched.Schedule.items;
  Alcotest.(check bool) "coalescing reduces instructions" true
    (Schedule.num_mvm_instructions sched
    <= Schedule.num_mvm_instructions (Schedule.build ~coalesce:false lg part));
  Alcotest.(check bool) "some group has >1" true (Schedule.max_group_size sched > 1)

let test_schedule_covers_all_nodes () =
  let lg = lower_demo () in
  let part = Partition.partition tiny_config Partition.Locality lg in
  let sched = Schedule.build ~coalesce:true lg part in
  let count =
    Array.fold_left
      (fun acc item ->
        match item with
        | Schedule.Single _ -> acc + 1
        | Schedule.Mvm_group ms -> acc + Array.length ms)
      0 sched.Schedule.items
  in
  Alcotest.(check int) "every node scheduled once" (Lgraph.num_nodes lg) count

(* ---- End-to-end correctness (the compiler oracle) ---- *)

let rng = Rng.create 2024

let test_e2e_figure7 () =
  let m = B.create "fig7" in
  let x = B.input m ~name:"x" ~len:80 in
  let y = B.input m ~name:"y" ~len:80 in
  let a = B.const_matrix m ~name:"A" (Tensor.mat_rand rng 50 80 0.1) in
  let b = B.const_matrix m ~name:"B" (Tensor.mat_rand rng 50 80 0.1) in
  let z = B.tanh m (B.add m (B.mvm m a x) (B.mvm m b y)) in
  B.output m ~name:"z" z;
  let g = B.finish m in
  let inputs =
    [ ("x", Tensor.vec_rand rng 80 1.0); ("y", Tensor.vec_rand rng 80 1.0) ]
  in
  ignore (check_against_reference g inputs)

let test_e2e_weight_reuse_chain () =
  (* The same matrix applied twice (recurrent pattern). *)
  let m = B.create "chain" in
  let x = B.input m ~name:"x" ~len:48 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 48 48 0.1) in
  let h1 = B.sigmoid m (B.mvm m w x) in
  let h2 = B.sigmoid m (B.mvm m w h1) in
  B.output m ~name:"y" h2;
  let g = B.finish m in
  ignore (check_against_reference g [ ("x", Tensor.vec_rand rng 48 1.0) ])

let test_e2e_gather_heavy () =
  (* Concat/slice crossing segment boundaries. *)
  let m = B.create "gather" in
  let x = B.input m ~name:"x" ~len:50 in
  let y = B.input m ~name:"y" ~len:30 in
  let c = B.concat m [ B.slice m x ~offset:10 ~len:25; y; x ] in
  B.output m ~name:"z" (B.relu m (B.slice m c ~offset:20 ~len:60));
  let g = B.finish m in
  ignore
    (check_against_reference g
       [ ("x", Tensor.vec_rand rng 50 1.0); ("y", Tensor.vec_rand rng 30 1.0) ])

let test_e2e_immediates_and_bias () =
  let m = B.create "imm" in
  let x = B.input m ~name:"x" ~len:40 in
  let bias = B.const_vec m (Array.init 40 (fun i -> 0.01 *. Float.of_int i)) in
  B.output m ~name:"y" (B.mul_imm m (B.add m x bias) 0.5);
  let g = B.finish m in
  ignore (check_against_reference g [ ("x", Tensor.vec_rand rng 40 1.0) ])

let test_e2e_random_partition_same_result () =
  let m = B.create "anyplace" in
  let x = B.input m ~name:"x" ~len:70 in
  let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_rand rng 70 70 0.1) in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand rng 40 70 0.1) in
  B.output m ~name:"y" (B.mvm m w2 (B.relu m (B.mvm m w1 x)));
  let g = B.finish m in
  let inputs = [ ("x", Tensor.vec_rand rng 70 1.0) ] in
  let r1 = compile g in
  let r2 =
    compile
      ~options:{ Compile.default_options with partition_strategy = Random 7 }
      g
  in
  let o1 = run_program r1.Compile.program inputs in
  let o2 = run_program r2.Compile.program inputs in
  Alcotest.(check (array (float 1e-9)))
    "placement-independent semantics" (List.assoc "y" o1) (List.assoc "y" o2)

let test_e2e_coalescing_same_result () =
  let m = B.create "coal" in
  let x = B.input m ~name:"x" ~len:64 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 64 64 0.1) in
  B.output m ~name:"y" (B.mvm m w x);
  let g = B.finish m in
  let inputs = [ ("x", Tensor.vec_rand rng 64 1.0) ] in
  let on = compile g in
  let off = compile ~options:{ Compile.default_options with coalesce_mvms = false } g in
  let o1 = run_program on.Compile.program inputs in
  let o2 = run_program off.Compile.program inputs in
  Alcotest.(check (array (float 1e-9)))
    "coalescing preserves semantics" (List.assoc "y" o1) (List.assoc "y" o2)

let test_e2e_batch_loop_wrapper () =
  let m = B.create "loop" in
  let x = B.input m ~name:"x" ~len:32 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 32 32 0.1) in
  B.output m ~name:"y" (B.relu m (B.mvm m w x));
  let g = B.finish m in
  let inputs = [ ("x", Tensor.vec_rand rng 32 1.0) ] in
  let r =
    check_against_reference
      ~options:{ Compile.default_options with wrap_batch_loop = true }
      g inputs
  in
  (* Control-flow instructions must now be present (Figure 4 CNN bars). *)
  let u = Compile.usage r in
  Alcotest.(check bool) "has control flow" true
    (Puma_isa.Usage.count u Instr.U_control > 0);
  Alcotest.(check bool) "has sfu" true (Puma_isa.Usage.count u Instr.U_sfu > 0)

let test_e2e_register_pressure_spills () =
  (* A balanced reduction tree over values that all depend on the input
     keeps ~log n values live at once; with a 3-slot register file this
     forces spills, and results must still be exact. *)
  let cfg = { tiny_config with rf_multiplier = 0.75 } in
  let m = B.create "spill" in
  let x = B.input m ~name:"x" ~len:32 in
  let leaves =
    List.init 8 (fun i -> B.tanh m (B.mul_imm m x (0.05 *. Float.of_int (i + 1))))
  in
  let rec tree = function
    | [ v ] -> v
    | vs ->
        let rec pair = function
          | a :: b :: rest -> B.add m a b :: pair rest
          | rest -> rest
        in
        tree (pair vs)
  in
  B.output m ~name:"y" (tree leaves);
  let g = B.finish m in
  let r = check_against_reference ~config:cfg g [ ("x", Tensor.vec_rand rng 32 1.0) ] in
  Alcotest.(check bool) "spills happened" true
    (r.Compile.codegen_stats.spilled_fraction > 0.0)

let test_e2e_multi_tile_communication () =
  (* A model spanning several tiles must produce sends/receives. *)
  let m = B.create "mt" in
  let x = B.input m ~name:"x" ~len:128 in
  let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_rand rng 128 128 0.08) in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand rng 64 128 0.08) in
  B.output m ~name:"y" (B.mvm m w2 (B.sigmoid m (B.mvm m w1 x)));
  let g = B.finish m in
  let r = check_against_reference g [ ("x", Tensor.vec_rand rng 128 1.0) ] in
  Alcotest.(check bool) "multi tile" true (r.Compile.tiles_used > 1);
  Alcotest.(check bool) "sends" true (r.Compile.codegen_stats.num_sends > 0);
  Alcotest.(check int) "sends = receives" r.Compile.codegen_stats.num_sends
    r.Compile.codegen_stats.num_receives

let test_e2e_code_size () =
  let m = B.create "size" in
  let x = B.input m ~name:"x" ~len:64 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 64 64 0.1) in
  B.output m ~name:"y" (B.mvm m w x);
  let r = compile (B.finish m) in
  Alcotest.(check (list string)) "fits instruction memories" []
    (List.filter_map
       (fun (d : Puma_isa.Diag.t) ->
         if d.code = "E-IMEM" then Some (Puma_isa.Diag.to_string d) else None)
       (Puma_isa.Check.diagnose r.Compile.program))

(* Random end-to-end sweep: arbitrary DAGs of supported ops. *)
let random_model seed =
  let rng = Rng.create (1000 + seed) in
  let m = B.create "rnd" in
  let n_in = 20 + Rng.int rng 60 in
  let x = B.input m ~name:"x" ~len:n_in in
  let pool = ref [ x ] in
  let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
  for i = 1 to 8 + Rng.int rng 8 do
    let v = pick () in
    let nv =
      match Rng.int rng 8 with
      | 0 -> B.relu m v
      | 1 -> B.sigmoid m v
      | 2 ->
          let u = pick () in
          if B.len u = B.len v then B.add m v u else B.mul_imm m v 0.7
      | 3 -> B.mul_imm m v (-0.5)
      | 4 | 5 ->
          let rows = 10 + Rng.int rng 70 in
          let w =
            B.const_matrix m
              ~name:(Printf.sprintf "w%d" i)
              (Tensor.mat_rand rng rows (B.len v) (1.0 /. sqrt (Float.of_int (B.len v))))
          in
          B.mvm m w v
      | 6 when B.len v > 4 ->
          B.slice m v ~offset:(Rng.int rng (B.len v / 2)) ~len:(B.len v / 2)
      | _ ->
          let u = pick () in
          B.concat m [ v; u ]
    in
    if B.len nv <= 256 then pool := nv :: !pool
  done;
  B.output m ~name:"y" (pick ());
  (B.finish m, n_in)

let test_e2e_random_models () =
  for seed = 0 to 9 do
    let g, n_in = random_model seed in
    let rng = Rng.create (seed + 77) in
    let inputs = [ ("x", Tensor.vec_rand rng n_in 0.8) ] in
    ignore (check_against_reference ~tol:0.05 g inputs)
  done

let test_e2e_fifo_backpressure () =
  (* Depth-1 receive FIFOs force network backpressure on every transfer;
     blocking semantics must still drain correctly. *)
  let cfg = { tiny_config with fifo_depth = 1; num_fifos = 4 } in
  let m = B.create "bp" in
  let x = B.input m ~name:"x" ~len:128 in
  let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_rand rng 128 128 0.08) in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand rng 96 128 0.08) in
  B.output m ~name:"y" (B.relu m (B.mvm m w2 (B.sigmoid m (B.mvm m w1 x))));
  let g = B.finish m in
  let r =
    check_against_reference ~config:cfg g [ ("x", Tensor.vec_rand rng 128 1.0) ]
  in
  Alcotest.(check bool) "crossed tiles" true
    (r.Compile.codegen_stats.num_sends > 0)

let test_e2e_mvm_free_graph () =
  (* Pure vector pipelines use no crossbars at all. *)
  let m = B.create "novmm" in
  let x = B.input m ~name:"x" ~len:40 in
  let y = B.input m ~name:"y" ~len:40 in
  B.output m ~name:"z" (B.relu m (B.mul m (B.add m x y) x));
  let g = B.finish m in
  let r =
    check_against_reference g
      [ ("x", Tensor.vec_rand rng 40 1.0); ("y", Tensor.vec_rand rng 40 1.0) ]
  in
  Alcotest.(check int) "no crossbars" 0 r.Compile.mvmus_used

let test_compile_deterministic () =
  let m = B.create "det" in
  let x = B.input m ~name:"x" ~len:64 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand (Rng.create 9) 64 64 0.1) in
  B.output m ~name:"y" (B.sigmoid m (B.mvm m w x));
  let g = B.finish m in
  let bytes () =
    Puma_isa.Program_io.to_bytes (compile g).Compile.program
  in
  Alcotest.(check bool) "bit-identical programs" true (bytes () = bytes ())

(* Compiles running on several domains at once must not see each other's
   state: codegen tags every instruction with its source node
   ([core_src]/[tile_src]), and that tag is per compile. Two different
   models alternate on a 2-domain pool; every job must equal its serial
   compile — the program, the codegen statistics and provenance, and the
   per-instruction layer labels of the full [Compile.result]. *)
let test_compile_concurrent () =
  let module Codegen = Puma_compiler.Codegen in
  let graphs =
    [|
      Puma_nn.Network.build_graph Puma_nn.Models.mini_mlp;
      Puma_nn.Network.build_graph Puma_nn.Models.mini_lstm;
    |]
  in
  let job g =
    let o = Compile.default_options in
    let lg = Tiling.lower ~dim:tiny_config.mvmu_dim g in
    let part = Partition.partition tiny_config o.partition_strategy lg in
    let sched = Schedule.build ~coalesce:o.coalesce_mvms lg part in
    let generated =
      Codegen.generate tiny_config ~wrap_batch_loop:false g lg part sched
    in
    let r = compile g in
    let p = r.Compile.program in
    let labels =
      Array.to_list p.Program.tiles
      |> List.concat_map (fun (tp : Program.tile_program) ->
             let tile = tp.tile_index in
             List.init (Array.length tp.tile_code) (fun pc ->
                 r.Compile.layer_of ~tile ~core:None ~pc)
             @ List.concat
                 (List.mapi
                    (fun c code ->
                      List.init (Array.length code) (fun pc ->
                          r.Compile.layer_of ~tile ~core:(Some c) ~pc))
                    (Array.to_list tp.core_code)))
    in
    ( generated,
      (Puma_isa.Program_io.to_bytes p, r.Compile.codegen_stats, labels) )
  in
  let serial = Array.map job graphs in
  let n = 64 in
  let parallel =
    Puma_util.Pool.map_init ~domains:2 ~n
      ~init:(fun ~worker:_ -> ())
      (fun () i -> job graphs.(i mod 2))
  in
  Array.iteri
    (fun i ((program, stats, prov), result) ->
      let (program', stats', prov'), result' = serial.(i mod 2) in
      let name = Printf.sprintf "job %d (model %d)" i (i mod 2) in
      Alcotest.(check bool) (name ^ ": program") true (program = program');
      Alcotest.(check bool) (name ^ ": stats") true (stats = stats');
      Alcotest.(check bool)
        (name ^ ": core_src") true
        (prov.Codegen.core_src = prov'.Codegen.core_src);
      Alcotest.(check bool)
        (name ^ ": tile_src") true
        (prov.Codegen.tile_src = prov'.Codegen.tile_src);
      Alcotest.(check bool) (name ^ ": compile result") true (result = result'))
    parallel

(* ---- Graph optimization (CSE + DCE) ---- *)

let test_optimize_cse_merges_duplicates () =
  let m = B.create "cse" in
  let x = B.input m ~name:"x" ~len:16 in
  (* The same subexpression built twice. *)
  let a = B.relu m (B.mul_imm m x 0.5) in
  let b = B.relu m (B.mul_imm m x 0.5) in
  B.output m ~name:"y" (B.add m a b);
  let g = B.finish m in
  let g', s = Puma_compiler.Optimize.run g in
  Alcotest.(check bool) "merged some" true (s.merged >= 2);
  Alcotest.(check bool) "fewer nodes" true (s.nodes_after < s.nodes_before);
  Alcotest.(check bool) "still valid" true (Result.is_ok (G.validate g'));
  let x = Tensor.vec_rand rng 16 1.0 in
  Alcotest.(check (array (float 1e-12)))
    "same semantics"
    (List.assoc "y" (Ref_exec.run g [ ("x", x) ]))
    (List.assoc "y" (Ref_exec.run g' [ ("x", x) ]))

let test_optimize_dce_drops_unreachable () =
  let m = B.create "dce" in
  let x = B.input m ~name:"x" ~len:16 in
  let w_dead = B.const_matrix m ~name:"Wdead" (Tensor.mat_rand rng 16 16 0.1) in
  let _dead = B.tanh m (B.mvm m w_dead x) in
  B.output m ~name:"y" (B.relu m x);
  let g = B.finish m in
  let g', s = Puma_compiler.Optimize.run g in
  Alcotest.(check bool) "dead nodes dropped" true (s.dead >= 2);
  (* The dead MVM's matrix must not occupy crossbars. *)
  Alcotest.(check int) "dead matrix dropped" 0 s.matrices_after;
  let r = compile g' in
  Alcotest.(check int) "no crossbars used" 0 r.Compile.mvmus_used;
  ignore s.nodes_before

let test_optimize_preserves_compiled_behaviour () =
  (* Lenet-style graphs are full of shared zero-pad segments and repeated
     slices; optimized and unoptimized programs must agree exactly. *)
  let net =
    Puma_nn.Network.make ~name:"opt-cnn" ~kind:Puma_nn.Network.Cnn
      ~input:(Puma_nn.Layer.Img { h = 6; w = 6; c = 1 })
      [
        Puma_nn.Layer.Conv
          { out_ch = 2; kh = 3; kw = 3; stride = 1; pad = 1; act = Relu };
        Puma_nn.Layer.Flatten;
        Puma_nn.Layer.Dense { out = 5; act = Sigmoid };
      ]
  in
  let g = Puma_nn.Network.build_graph ~seed:3 net in
  let inputs = [ ("x", Tensor.vec_rand rng 36 1.0) ] in
  let on = compile ~options:{ Compile.default_options with optimize_graph = true } g in
  let off = compile ~options:{ Compile.default_options with optimize_graph = false } g in
  let o1 = run_program on.Compile.program inputs in
  let o2 = run_program off.Compile.program inputs in
  Alcotest.(check (array (float 1e-9)))
    "identical outputs" (List.assoc "y" o1) (List.assoc "y" o2);
  (match on.Compile.optimize_stats with
  | Some s ->
      Alcotest.(check bool) "padding shared via CSE" true (s.merged > 0)
  | None -> Alcotest.fail "expected optimize stats");
  Alcotest.(check bool) "fewer instructions when optimized" true
    (on.Compile.codegen_stats.total_instructions
    <= off.Compile.codegen_stats.total_instructions)

(* ---- Program serialization ---- *)

let test_program_io_roundtrip () =
  let m = B.create "io" in
  let x = B.input m ~name:"x" ~len:70 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 70 70 0.1) in
  let bias = B.const_vec m (Array.init 70 (fun i -> 0.001 *. Float.of_int i)) in
  B.output m ~name:"y" (B.sigmoid m (B.add m (B.mvm m w x) bias));
  let g = B.finish m in
  let r = compile g in
  let bytes = Puma_isa.Program_io.to_bytes r.Compile.program in
  match Puma_isa.Program_io.of_bytes bytes with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check int) "tiles" (Program.num_tiles r.Compile.program)
        (Program.num_tiles loaded);
      Alcotest.(check int) "instrs" (Program.num_instrs r.Compile.program)
        (Program.num_instrs loaded);
      Alcotest.(check int) "checker clean" 0
        (List.length (Puma_isa.Check.diagnose loaded));
      Alcotest.(check bool) "bytes round trip" true
        (Puma_isa.Program_io.to_bytes loaded = bytes);
      (* The loaded program must simulate to the same outputs. *)
      let inputs = [ ("x", Tensor.vec_rand rng 70 1.0) ] in
      let o1 = run_program r.Compile.program inputs in
      let o2 = run_program loaded inputs in
      Alcotest.(check (array (float 1e-9)))
        "behaviour preserved" (List.assoc "y" o1) (List.assoc "y" o2)

let test_program_io_rejects_garbage () =
  Alcotest.(check bool) "empty" true
    (Result.is_error (Puma_isa.Program_io.of_bytes (Bytes.create 0)));
  Alcotest.(check bool) "bad magic" true
    (Result.is_error (Puma_isa.Program_io.of_bytes (Bytes.of_string "NOPE\x01\x00")));
  let m = B.create "g" in
  let x = B.input m ~name:"x" ~len:8 in
  B.output m ~name:"y" x;
  let r = compile (B.finish m) in
  let good = Puma_isa.Program_io.to_bytes r.Compile.program in
  (* Truncation at any point must fail cleanly, never raise. *)
  let ok = ref true in
  for cut = 0 to Bytes.length good - 1 do
    if cut mod 7 = 0 then
      match Puma_isa.Program_io.of_bytes (Bytes.sub good 0 cut) with
      | Ok _ -> ok := false
      | Error _ -> ()
  done;
  Alcotest.(check bool) "all truncations rejected" true !ok;
  (* Trailing garbage is rejected too. *)
  Alcotest.(check bool) "trailing bytes" true
    (Result.is_error
       (Puma_isa.Program_io.of_bytes (Bytes.cat good (Bytes.make 3 'x'))))

let test_program_io_preserves_config () =
  let cfg =
    { tiny_config with rf_multiplier = 0.75; write_noise_sigma = 0.125;
      frequency_ghz = 1.5; bits_per_cell = 4 }
  in
  let m = B.create "cfg" in
  let x = B.input m ~name:"x" ~len:8 in
  B.output m ~name:"y" x;
  let r = compile ~config:cfg (B.finish m) in
  match Puma_isa.Program_io.of_bytes (Puma_isa.Program_io.to_bytes r.Compile.program) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check bool) "config preserved exactly" true (p.config = cfg)

let test_program_io_file () =
  let m = B.create "f" in
  let x = B.input m ~name:"x" ~len:16 in
  B.output m ~name:"y" (B.relu m x);
  let r = compile (B.finish m) in
  let path = Filename.temp_file "puma" ".prog" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Puma_isa.Program_io.save path r.Compile.program;
      match Puma_isa.Program_io.load path with
      | Ok p -> Alcotest.(check int) "instrs" (Program.num_instrs r.Compile.program)
                  (Program.num_instrs p)
      | Error e -> Alcotest.fail e)

(* ---- Static checker ---- *)

let test_checker_rejects_bad_programs () =
  let g =
    let m = B.create "chk" in
    let x = B.input m ~name:"x" ~len:32 in
    B.output m ~name:"y" (B.relu m x);
    B.finish m
  in
  let r = compile g in
  let p = r.Compile.program in
  Alcotest.(check int) "clean program" 0 (List.length (Puma_isa.Check.diagnose p));
  (* Corrupt a core stream with a tile instruction. *)
  let corrupt instr =
    let tiles =
      Array.map
        (fun (tp : Program.tile_program) ->
          { tp with Program.core_code = Array.map (fun c ->
                if Array.length c > 0 then Array.append c [| instr |] else c)
                tp.core_code })
        p.tiles
    in
    { p with Program.tiles = tiles }
  in
  let bad1 = corrupt (Instr.Send { mem_addr = 0; fifo_id = 0; target = 0; vec_width = 1 }) in
  Alcotest.(check bool) "tile instr flagged" true (Puma_isa.Check.diagnose bad1 <> []);
  let bad2 = corrupt (Instr.Jmp { pc = 100000 }) in
  Alcotest.(check bool) "wild jump flagged" true (Puma_isa.Check.diagnose bad2 <> []);
  let bad3 =
    corrupt (Instr.Copy { dest = 0; src = 0; vec_width = 2000 })
  in
  Alcotest.(check bool) "operand overflow flagged" true
    (Puma_isa.Check.diagnose bad3 <> []);
  let bad4 =
    corrupt (Instr.Store { src = 0; addr = Imm_addr 32760; count = 0; vec_width = 32 })
  in
  Alcotest.(check bool) "smem overflow flagged" true (Puma_isa.Check.diagnose bad4 <> []);
  Alcotest.(check bool) "check_exn raises" true
    (try
       Puma_isa.Check.check_exn bad1;
       false
     with Failure _ -> true)

(* A hand-built program (negative immediates in the constants, a
   non-square image, two tiles) serializes to exactly the bytes of the
   growing-buffer writer the exact-size writer replaced, pinned here by
   length and digest; it still round-trips. *)
let handmade_program () =
  let image n f =
    let b = Bytes.create (2 * n) in
    for k = 0 to n - 1 do
      Bytes.set_int16_ne b (2 * k) (f k)
    done;
    Bytes.to_string b
  in
  let dim = tiny_config.mvmu_dim in
  let binding name tile mem_addr length offset =
    { Program.name; tile; mem_addr; length; offset }
  in
  {
    Program.config = tiny_config;
    tiles =
      [|
        {
          Program.tile_index = 0;
          core_code =
            [|
              [|
                Instr.Set { dest = 3; imm = 7 };
                Instr.Mvm { mask = 3; filter = 0; stride = 0 };
                Instr.Halt;
              |];
              [| Instr.Halt |];
            |];
          tile_code =
            [|
              Instr.Send { mem_addr = 16; fifo_id = 1; target = 1; vec_width = 4 };
              Instr.Halt;
            |];
          mvmu_images =
            [
              { core_index = 0; mvmu_index = 1;
                image = image (dim * dim) (fun k -> ((k * 37) mod 65536) - 32768) };
              { core_index = 1; mvmu_index = 0; image = image 3 (fun k -> k - 1) };
            ];
        };
        {
          Program.tile_index = 1;
          core_code = [| [||]; [||] |];
          tile_code =
            [|
              Instr.Receive { mem_addr = 8; fifo_id = 1; count = 1; vec_width = 4 };
              Instr.Halt;
            |];
          mvmu_images = [];
        };
      |];
    inputs = [ binding "x" 0 0 4 0 ];
    outputs = [ binding "y" 1 8 4 0; binding "y" 1 12 2 4 ];
    constants = [ (binding "bias" 0 32 3 0, [| -32768; -1; 32767 |]) ];
  }

let test_program_io_exact_bytes () =
  let p = handmade_program () in
  let bytes = Puma_isa.Program_io.to_bytes p in
  Alcotest.(check int) "length" 2365 (Bytes.length bytes);
  Alcotest.(check string) "digest" "884bd4c27594d0a9763fc769642eede6"
    (Digest.to_hex (Digest.bytes bytes));
  (match Puma_isa.Program_io.of_bytes bytes with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check bool) "round trip" true
        (Puma_isa.Program_io.to_bytes loaded = bytes));
  (* A compiled model: the writer's own exact-length assert holds and the
     bytes round-trip. *)
  let r = compile (Puma_nn.Network.build_graph Puma_nn.Models.mini_lstm) in
  let bytes = Puma_isa.Program_io.to_bytes r.Compile.program in
  match Puma_isa.Program_io.of_bytes bytes with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check bool) "compiled round trip" true
        (Puma_isa.Program_io.to_bytes loaded = bytes)

(* ---- Reduction trees and priority scheduling ---- *)

(* Longest chain of [Add]s from any MVM partial to each node. *)
let add_depths lg =
  let depth = Array.make (Lgraph.num_nodes lg) 0 in
  Array.iter
    (fun (n : Lgraph.lnode) ->
      match n.op with
      | Lgraph.L_binop G.Add ->
          depth.(n.id) <-
            1 + Array.fold_left (fun acc p -> max acc depth.(p)) 0 n.preds
      | _ -> ())
    (Lgraph.nodes lg);
  depth

let test_reduction_depth () =
  List.iter
    (fun cols ->
      let m = B.create "wide" in
      let x = B.input m ~name:"x" ~len:(32 * cols) in
      let w = B.const_matrix m ~name:"W" (Tensor.mat_create 32 (32 * cols)) in
      B.output m ~name:"y" (B.mvm m w x);
      let lg = Tiling.lower ~dim:32 (B.finish m) in
      let part = Partition.partition tiny_config Partition.Locality lg in
      let per_core = Hashtbl.create 8 in
      Array.iter
        (fun (n : Lgraph.lnode) ->
          match n.op with
          | Lgraph.L_mvm _ ->
              let p = part.Partition.node_place.(n.id) in
              let k = (p.Partition.tile, p.Partition.core) in
              Hashtbl.replace per_core k
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_core k))
          | _ -> ())
        (Lgraph.nodes lg);
      let run = Hashtbl.fold (fun _ c acc -> max acc c) per_core 0 in
      let cores = Hashtbl.length per_core in
      let rec log2_ceil k = if k <= 1 then 0 else 1 + log2_ceil ((k + 1) / 2) in
      let sum =
        Array.fold_left
          (fun acc (n : Lgraph.lnode) ->
            match n.op with Lgraph.L_output _ -> n.preds.(0) | _ -> acc)
          (-1) (Lgraph.nodes lg)
      in
      let depth = (add_depths lg).(sum) in
      Alcotest.(check bool)
        (Printf.sprintf "%d blocks on %d cores: depth %d <= %d + %d" cols
           cores depth run (log2_ceil cores))
        true
        (depth <= run + log2_ceil cores);
      if cols >= 8 then
        Alcotest.(check bool) "shallower than a chain" true (depth < cols - 1))
    [ 1; 2; 3; 5; 8; 11; 16 ]

(* Reshaping the reductions into trees moves no value across a new
   boundary: the counts that left-to-right chains gave, pinned as
   (model, dim, cross_core, cross_tile, cross_node), bound every
   placement from above. *)
let test_reduction_no_extra_transfers () =
  let zoo =
    [
      ("mlp", Puma_nn.Network.build_graph Puma_nn.Models.mini_mlp);
      ("lstm", Puma_nn.Network.build_graph Puma_nn.Models.mini_lstm);
      ("rnn", Puma_nn.Network.build_graph Puma_nn.Models.mini_rnn);
      ("lenet5", Puma_nn.Network.build_graph Puma_nn.Models.lenet5);
      ("bm", Puma_nn.Models.mini_bm);
      ("rbm", Puma_nn.Models.mini_rbm);
    ]
  in
  let chain_counts =
    [
      ("mlp", 64, 18, 0, 0); ("lstm", 64, 83, 58, 0); ("rnn", 64, 13, 0, 0);
      ("lenet5", 64, 883, 2, 0); ("bm", 64, 32, 48, 0); ("rbm", 64, 56, 112, 0);
      ("mlp", 128, 6, 0, 0); ("lstm", 128, 43, 0, 0); ("rnn", 128, 0, 0, 0);
      ("lenet5", 128, 823, 0, 0); ("bm", 128, 16, 0, 0); ("rbm", 128, 20, 16, 0);
      ("mlpl4", 128, 135, 324, 81);
    ]
  in
  let options cluster =
    { Compile.default_options with
      analysis_gate = false; check_equiv = false; static_analysis = false;
      cluster }
  in
  let edges name dim =
    let config = { Config.sweetspot with mvmu_dim = dim } in
    let r =
      if name = "mlpl4" then
        Compile.compile
          ~options:(options (Some { Partition.nodes = 2; scheme = Pipelined }))
          config
          (Puma_nn.Network.build_graph Puma_nn.Models.mlp_l4)
      else Compile.compile ~options:(options None) config (List.assoc name zoo)
    in
    r.Compile.edge_stats
  in
  List.iter
    (fun (name, dim, cross_core, cross_tile, cross_node) ->
      let e = edges name dim in
      let check what have bound =
        Alcotest.(check bool)
          (Printf.sprintf "%s dim %d %s %d <= %d" name dim what have bound)
          true (have <= bound)
      in
      check "cross-core" e.Partition.cross_core cross_core;
      check "cross-tile" e.Partition.cross_tile cross_tile;
      check "cross-node" e.Partition.cross_node cross_node)
    chain_counts

(* Issuing MVMs before reductions lets every core fire both of its
   crossbars at once: a dense 1120x1120 layer (9x9 blocks at dim 128,
   two MVMUs per core) takes one MVM instruction per pair of slots. *)
let test_coalescing_dense_layer () =
  let m = B.create "dense" in
  let x = B.input m ~name:"x" ~len:1120 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 1120 1120 0.05) in
  B.output m ~name:"y" (B.relu m (B.mvm m w x));
  let config = Config.sweetspot in
  let lg = Tiling.lower ~dim:config.mvmu_dim (B.finish m) in
  let part = Partition.partition config Partition.Locality lg in
  let sched = Schedule.build ~coalesce:true lg part in
  let slots = Lgraph.num_slots lg in
  Alcotest.(check int) "slots" 81 slots;
  Alcotest.(check int) "MVM instructions"
    ((slots + config.mvmus_per_core - 1) / config.mvmus_per_core)
    (Schedule.num_mvm_instructions sched)

(* ---- Scheduling priority and its static bound ---- *)

let bench_minis () =
  [
    ("mlp", Puma_nn.Network.build_graph Puma_nn.Models.mini_mlp);
    ("lstm", Puma_nn.Network.build_graph Puma_nn.Models.mini_lstm);
    ("rnn", Puma_nn.Network.build_graph Puma_nn.Models.mini_rnn);
    ("bm", Puma_nn.Models.mini_bm);
    ("rbm", Puma_nn.Models.mini_rbm);
  ]

let random_inputs g =
  Array.to_list (G.nodes g)
  |> List.filter_map (fun (n : G.node) ->
         match n.op with
         | G.Input name -> Some (name, Tensor.vec_rand rng n.len 1.0)
         | _ -> None)

(* The schedule is a topological order of the whole lowered graph: every
   node exactly once, after all of its preds. *)
let check_schedule_order name lg (sched : Schedule.t) =
  let n = Lgraph.num_nodes lg in
  let at = Array.make n (-1) in
  Array.iteri
    (fun k it ->
      let place id =
        Alcotest.(check int) (Printf.sprintf "%s: node %d once" name id) (-1)
          at.(id);
        at.(id) <- k
      in
      match it with
      | Schedule.Single id -> place id
      | Schedule.Mvm_group ms -> Array.iter place ms)
    sched.Schedule.items;
  Array.iter
    (fun (nd : Lgraph.lnode) ->
      Alcotest.(check bool) (Printf.sprintf "%s: node %d listed" name nd.id)
        true (at.(nd.id) >= 0);
      Array.iter
        (fun p ->
          if not (at.(p) < at.(nd.id)) then
            Alcotest.failf "%s: node %d issues before its pred %d" name nd.id p)
        nd.preds)
    (Lgraph.nodes lg)

let test_schedule_topological () =
  List.iter
    (fun dim ->
      let config = { Config.sweetspot with mvmu_dim = dim } in
      List.iter
        (fun (name, g) ->
          let lg = Tiling.lower ~dim g in
          let part = Partition.partition config Partition.Locality lg in
          check_schedule_order
            (Printf.sprintf "%s dim %d" name dim)
            lg
            (Schedule.build ~coalesce:true lg part))
        (bench_minis ()))
    [ 64; 128 ];
  let config = Config.sweetspot in
  let lg =
    Tiling.lower ~dim:config.mvmu_dim
      (Puma_nn.Network.build_graph Puma_nn.Models.mlp_l4)
  in
  let part =
    Partition.partition
      ~cluster:{ Partition.nodes = 2; scheme = Pipelined }
      config Partition.Locality lg
  in
  check_schedule_order "mlpl4 x2" lg (Schedule.build ~coalesce:true lg part)

(* Two chains share one core: the long one (three vector operations) is
   built first, so reverse postorder alone would start the short one
   (a single relu). The critical path goes first. *)
let test_schedule_long_chain_first () =
  let m = B.create "chains" in
  let x = B.input m ~name:"x" ~len:32 in
  B.output m ~name:"long" (B.sigmoid m (B.tanh m (B.mul_imm m x 0.5)));
  B.output m ~name:"short" (B.relu m x);
  let config =
    { tiny_config with tiles_per_node = 1; cores_per_tile = 1; mvmus_per_core = 1 }
  in
  let lg = Tiling.lower ~dim:config.mvmu_dim (B.finish m) in
  let part = Partition.partition config Partition.Locality lg in
  let sched = Schedule.build ~coalesce:true lg part in
  let find op =
    let id = ref (-1) in
    Array.iter
      (fun (nd : Lgraph.lnode) -> if nd.op = op then id := nd.id)
      (Lgraph.nodes lg);
    !id
  in
  let long_head = find (Lgraph.L_immop (G.Mul_imm 0.5)) in
  let short_head = find (Lgraph.L_unop G.Relu) in
  let index_in order id =
    let k = ref (-1) in
    Array.iteri (fun i x -> if x = id then k := i) order;
    !k
  in
  let rpo = Lgraph.reverse_postorder lg in
  Alcotest.(check bool) "reverse postorder starts the short chain" true
    (index_in rpo short_head < index_in rpo long_head);
  let issued =
    Array.map
      (function Schedule.Single id -> id | Schedule.Mvm_group ms -> ms.(0))
      sched.Schedule.items
  in
  Alcotest.(check bool) "one core" true
    (Array.for_all (fun tc -> tc = (0, 0)) sched.Schedule.item_core);
  Alcotest.(check bool) "long chain's head first" true
    (index_in issued long_head < index_in issued short_head)

(* The critical path weighs each node by the fewest cycles the simulator
   can spend on it, so it never exceeds one simulated inference. *)
let test_critical_path_bound () =
  List.iter
    (fun dim ->
      let config = { Config.sweetspot with mvmu_dim = dim } in
      List.iter
        (fun (name, g) ->
          let r = Compile.compile config g in
          let node = Puma_sim.Node.create r.Compile.program in
          ignore (Puma_sim.Node.run node ~inputs:(random_inputs g));
          let sim = Puma_sim.Node.cycles node in
          let cp = r.Compile.critical_path_cycles in
          Alcotest.(check bool)
            (Printf.sprintf "%s dim %d: 0 < CP %d <= simulated %d" name dim cp
               sim)
            true
            (0 < cp && cp <= sim))
        (bench_minis ()))
    [ 64; 128 ]

(* A shared-memory overflow during code generation is a diagnostic with
   a stable code, still raised as [Failure]. *)
let test_smem_overflow_diagnostic () =
  let m = B.create "smem" in
  let x = B.input m ~name:"x" ~len:64 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 64 64 0.1) in
  B.output m ~name:"y" (B.relu m (B.mvm m w x));
  let config = { tiny_config with smem_bytes = 64 } in
  match Compile.compile config (B.finish m) with
  | _ -> Alcotest.fail "expected a shared-memory overflow"
  | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "E-SMEM in %S" msg) true
        (String.starts_with ~prefix:"error[E-SMEM]" msg)

(* So is a tile that needs more receive FIFOs than it has: rbm's tile 4
   receives from 4 tiles at dim 64. *)
let test_fifo_budget_diagnostic () =
  let config = { Config.sweetspot with mvmu_dim = 64; num_fifos = 2 } in
  match Compile.compile config Puma_nn.Models.mini_rbm with
  | _ -> Alcotest.fail "expected a receive-FIFO shortage"
  | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "E-FIFO in %S" msg) true
        (String.starts_with ~prefix:"error[E-FIFO]" msg)

(* A value that cannot fit even after every evictable value is gone is
   an [E-REGFILE] diagnostic: one value fills the file, and the next may
   not evict it. *)
let test_regfile_diagnostic () =
  let layout = Puma_isa.Operand.layout tiny_config in
  let capacity = Puma_isa.Operand.size_of layout Gpr in
  let r =
    Puma_compiler.Regalloc.create ~layout ~alloc_smem:(fun _ -> 0)
      ~emit:ignore
  in
  ignore (Puma_compiler.Regalloc.define r ~id:0 ~len:capacity ~pos:0 ~exclude:[]);
  match Puma_compiler.Regalloc.define r ~id:1 ~len:1 ~pos:1 ~exclude:[ 0 ] with
  | _ -> Alcotest.fail "expected a register-file shortage"
  | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "E-REGFILE in %S" msg) true
        (String.starts_with ~prefix:"error[E-REGFILE]" msg)

let () =
  Alcotest.run "compiler"
    [
      ( "tiling",
        [
          Alcotest.test_case "segments" `Quick test_tiling_segments;
          Alcotest.test_case "slot reuse" `Quick test_tiling_slot_reuse;
          Alcotest.test_case "slot images" `Quick test_tiling_slot_images;
          Alcotest.test_case "adder tree" `Quick test_tiling_mvm_adder_tree;
          Alcotest.test_case "levels/order" `Quick test_tiling_levels_and_order;
        ] );
      ( "partition",
        [
          Alcotest.test_case "capacity" `Quick test_partition_capacity;
          Alcotest.test_case "spills to more nodes" `Quick
            test_partition_spills_to_more_nodes;
          Alcotest.test_case "locality beats random" `Quick
            test_partition_locality_beats_random;
          Alcotest.test_case "diagnostics" `Quick test_partition_diagnostics;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "coalescing constraints" `Quick
            test_schedule_coalescing_constraints;
          Alcotest.test_case "covers all nodes" `Quick test_schedule_covers_all_nodes;
          Alcotest.test_case "topological on benchmarks" `Quick
            test_schedule_topological;
          Alcotest.test_case "long chain first" `Quick
            test_schedule_long_chain_first;
          Alcotest.test_case "critical path bound" `Quick
            test_critical_path_bound;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figure 7" `Quick test_e2e_figure7;
          Alcotest.test_case "weight reuse" `Quick test_e2e_weight_reuse_chain;
          Alcotest.test_case "gather heavy" `Quick test_e2e_gather_heavy;
          Alcotest.test_case "immediates/bias" `Quick test_e2e_immediates_and_bias;
          Alcotest.test_case "random partition" `Quick
            test_e2e_random_partition_same_result;
          Alcotest.test_case "coalescing equivalence" `Quick
            test_e2e_coalescing_same_result;
          Alcotest.test_case "batch loop wrapper" `Quick test_e2e_batch_loop_wrapper;
          Alcotest.test_case "register spills" `Quick test_e2e_register_pressure_spills;
          Alcotest.test_case "multi-tile" `Quick test_e2e_multi_tile_communication;
          Alcotest.test_case "code size" `Quick test_e2e_code_size;
          Alcotest.test_case "random models" `Slow test_e2e_random_models;
          Alcotest.test_case "fifo backpressure" `Quick test_e2e_fifo_backpressure;
          Alcotest.test_case "multi-node" `Quick test_e2e_multi_node;
          Alcotest.test_case "mvm-free graph" `Quick test_e2e_mvm_free_graph;
          Alcotest.test_case "deterministic compile" `Quick test_compile_deterministic;
          Alcotest.test_case "concurrent compiles" `Quick
            test_compile_concurrent;
          Alcotest.test_case "smem overflow diagnostic" `Quick
            test_smem_overflow_diagnostic;
          Alcotest.test_case "fifo budget diagnostic" `Quick
            test_fifo_budget_diagnostic;
          Alcotest.test_case "register file diagnostic" `Quick
            test_regfile_diagnostic;
        ] );
      ( "checker",
        [ Alcotest.test_case "rejects bad programs" `Quick
            test_checker_rejects_bad_programs ] );
      ( "optimize",
        [
          Alcotest.test_case "cse merges" `Quick test_optimize_cse_merges_duplicates;
          Alcotest.test_case "dce drops" `Quick test_optimize_dce_drops_unreachable;
          Alcotest.test_case "behaviour preserved" `Quick
            test_optimize_preserves_compiled_behaviour;
        ] );
      ( "program-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_program_io_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_program_io_rejects_garbage;
          Alcotest.test_case "config fidelity" `Quick test_program_io_preserves_config;
          Alcotest.test_case "file save/load" `Quick test_program_io_file;
          Alcotest.test_case "exact bytes" `Quick test_program_io_exact_bytes;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "tree depth" `Quick test_reduction_depth;
          Alcotest.test_case "no extra transfers" `Quick
            test_reduction_no_extra_transfers;
          Alcotest.test_case "coalescing dense layer" `Quick
            test_coalescing_dense_layer;
        ] );
    ]
