(* The fault-injection & reliability subsystem: deterministic fault
   realization, the zero-fault differential guarantee (campaigns with
   every impairment off are bit-identical to the plain batch runtime, for
   any domain count), fault perturbation, and the remapping pass's
   accuracy recovery and capacity diagnostics. *)

module Config = Puma_hwmodel.Config
module Compile = Puma_compiler.Compile
module Network = Puma_nn.Network
module Models = Puma_nn.Models
module Batch = Puma_runtime.Batch
module Node = Puma_sim.Node
module Fault = Puma_xbar.Fault
module Remap = Puma_fault.Remap
module Campaign = Puma_fault.Campaign
module Diag = Puma_analysis.Diag
module Json = Puma_util.Json

let program_of ?(dim = 32) net =
  let config = { Config.sweetspot with mvmu_dim = dim } in
  (Compile.compile config (Network.build_graph net)).Compile.program

let mlp32 = lazy (program_of Models.mini_mlp)
let mlp64 = lazy (program_of ~dim:64 Models.mini_mlp)

(* ---- Fault model & realization ---- *)

let test_validate () =
  Alcotest.(check bool) "ideal ok" true
    (Result.is_ok (Fault.validate Fault.ideal));
  Alcotest.(check bool) "ideal is ideal" true (Fault.is_ideal Fault.ideal);
  List.iter
    (fun m ->
      Alcotest.(check bool) "rejected" true
        (Result.is_error (Fault.validate m)))
    [
      { Fault.ideal with stuck_rate = -0.1 };
      { Fault.ideal with stuck_rate = 1.5 };
      { Fault.ideal with stuck_on_fraction = 2.0 };
      { Fault.ideal with dead_in_rate = -1.0 };
      { Fault.ideal with adc_offset_sigma = -0.5 };
    ]

let test_realize_deterministic () =
  let model =
    { Fault.ideal with stuck_rate = 5e-3; dead_in_rate = 0.02;
      dead_out_rate = 0.02; adc_offset_sigma = 1.0 }
  in
  let realize seed =
    Fault.realize_instance model ~seed ~tile:0 ~core:1 ~mvmu:0 ~dim:32
      ~slices:8
  in
  let a = realize 11 and b = realize 11 in
  Alcotest.(check bool) "same stuck set" true (a.Fault.stuck = b.Fault.stuck);
  Alcotest.(check (array bool)) "same dead in" a.Fault.dead_in b.Fault.dead_in;
  Alcotest.(check (array bool)) "same dead out" a.Fault.dead_out b.Fault.dead_out;
  Alcotest.(check bool) "same adc offsets" true
    (a.Fault.adc_offset = b.Fault.adc_offset);
  let c = realize 12 in
  Alcotest.(check bool) "different seed differs" true
    (a.Fault.stuck <> c.Fault.stuck || a.Fault.dead_in <> c.Fault.dead_in
    || a.Fault.adc_offset <> c.Fault.adc_offset);
  (* Distinct stacks get independent realizations. *)
  let d =
    Fault.realize_instance model ~seed:11 ~tile:0 ~core:1 ~mvmu:1 ~dim:32
      ~slices:8
  in
  Alcotest.(check bool) "different stack differs" true
    (a.Fault.stuck <> d.Fault.stuck || a.Fault.adc_offset <> d.Fault.adc_offset)

let test_realize_ideal_is_null () =
  let inst =
    Fault.realize_instance Fault.ideal ~seed:3 ~tile:0 ~core:0 ~mvmu:0 ~dim:16
      ~slices:8
  in
  Alcotest.(check bool) "null instance" true (Fault.is_null inst);
  Alcotest.(check int) "zero count" 0 (Fault.count inst);
  let plan = Fault.plan ~seed:3 Fault.ideal in
  let program = Lazy.force mlp32 in
  Alcotest.(check bool) "realize elides null specs" true
    (Fault.realize plan ~config:program.Puma_isa.Program.config ~tile:0
       ~core:0 ~mvmu:0
    = None)

(* ---- Zero-fault differential (campaign == plain Batch.run) ---- *)

let check_responses_identical label (want : Batch.response array)
    (got : Batch.response array) =
  Alcotest.(check int) (label ^ ": batch size") (Array.length want)
    (Array.length got);
  Array.iteri
    (fun i (w : Batch.response) ->
      let g = got.(i) in
      Alcotest.(check int) (label ^ ": index") w.index g.index;
      Alcotest.(check int) (label ^ ": cycles") w.cycles g.cycles;
      Alcotest.(check bool)
        (label ^ ": energy bit-identical")
        true
        (Float.equal w.dynamic_energy_pj g.dynamic_energy_pj);
      List.iter2
        (fun (wn, wv) (gn, gv) ->
          Alcotest.(check string) (label ^ ": output name") wn gn;
          Alcotest.(check bool)
            (label ^ ": outputs bit-identical")
            true
            (Array.for_all2 Float.equal wv gv))
        w.outputs g.outputs)
    want

let zero_spec =
  {
    Campaign.default_spec with
    rates = [ 0.0 ];
    fault_seeds = [ 1; 2 ];
    samples = 6;
  }

let test_zero_fault_differential () =
  let program = Lazy.force mlp32 in
  let requests =
    Batch.random_requests program ~batch:zero_spec.Campaign.samples
      ~seed:zero_spec.Campaign.input_seed
  in
  let plain, _ = Batch.run ~domains:1 program requests in
  List.iter
    (fun domains ->
      let report =
        Campaign.run ~domains ~key:"mlp" program
          { zero_spec with remap = domains mod 2 = 0 }
      in
      check_responses_identical
        (Printf.sprintf "golden d=%d" domains)
        plain report.Campaign.golden;
      Array.iter
        (fun (p : Campaign.point) ->
          check_responses_identical
            (Printf.sprintf "zero-fault point d=%d seed=%d" domains
               p.fault_seed)
            plain p.responses;
          Alcotest.(check int) "no faults" 0 p.total_faults;
          Alcotest.(check int) "max err 0" 0 p.max_err_ulps;
          Alcotest.(check (float 0.0)) "flip rate 0" 0.0 p.flip_rate)
        report.Campaign.points)
    [ 1; 2; 4 ];
  (* The same guarantee on a 2-chip cluster: the golden batch is the plain
     cluster batch, and zero-fault per-chip plans change nothing. *)
  let plain, _ = Batch.run ~domains:1 ~cluster_nodes:2 program requests in
  List.iter
    (fun domains ->
      let report =
        Campaign.run ~domains ~nodes:2 ~key:"mlp" program
          { zero_spec with remap = domains mod 2 = 0 }
      in
      check_responses_identical
        (Printf.sprintf "cluster golden d=%d" domains)
        plain report.Campaign.golden;
      Array.iter
        (fun (p : Campaign.point) ->
          Alcotest.(check int) "no cluster faults" 0 p.total_faults;
          Alcotest.(check int) "cluster max err 0" 0 p.max_err_ulps;
          Alcotest.(check (float 0.0)) "cluster flip rate 0" 0.0 p.flip_rate;
          Alcotest.(check (array (float 0.0)))
            "per-node flip rates 0" [| 0.0; 0.0 |] p.node_flip_rates)
        report.Campaign.points)
    [ 1; 2; 4 ]

let test_campaign_deterministic_across_domains () =
  let program = Lazy.force mlp32 in
  let spec =
    {
      Campaign.default_spec with
      rates = [ 1e-3; 5e-3 ];
      fault_seeds = [ 1; 2 ];
      samples = 4;
    }
  in
  let a = Campaign.run ~domains:1 ~key:"mlp" program spec in
  let b = Campaign.run ~domains:4 ~key:"mlp" program spec in
  Array.iteri
    (fun i (pa : Campaign.point) ->
      let pb = b.Campaign.points.(i) in
      Alcotest.(check int) "faults" pa.total_faults pb.total_faults;
      Alcotest.(check int) "max ulps" pa.max_err_ulps pb.max_err_ulps;
      Alcotest.(check bool) "mean ulps" true
        (Float.equal pa.mean_err_ulps pb.mean_err_ulps);
      Alcotest.(check bool) "flip rate" true
        (Float.equal pa.flip_rate pb.flip_rate);
      check_responses_identical "responses" pa.responses pb.responses)
    a.Campaign.points;
  let a = Campaign.run ~domains:1 ~nodes:2 ~key:"mlp" program spec in
  let b = Campaign.run ~domains:4 ~nodes:2 ~key:"mlp" program spec in
  check_responses_identical "cluster golden" a.Campaign.golden
    b.Campaign.golden;
  Alcotest.(check bool) "cluster faults realized" true
    (Array.exists
       (fun (p : Campaign.point) -> p.total_faults > 0)
       a.Campaign.points);
  Array.iteri
    (fun i (pa : Campaign.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "cluster point %d identical" i)
        true
        (pa = b.Campaign.points.(i)))
    a.Campaign.points

(* The seed rule: chip 0 realizes from the point's fault seed, chip k
   from [Batch.request_seed ~seed:fault_seed ~index:k], each on its own
   shard. On one chip the campaign is a plain faulted batch. *)
let test_chip_seed_rule () =
  let program = Lazy.force mlp32 in
  let spec =
    {
      Campaign.default_spec with
      rates = [ 5e-3 ];
      fault_seeds = [ 3 ];
      samples = 4;
      remap = true;
    }
  in
  let model = Campaign.at_rate spec.Campaign.base 5e-3 in
  let one = Campaign.run ~domains:1 ~key:"mlp" program spec in
  let p = one.Campaign.points.(0) in
  let plan = Remap.build ~remap:true ~model ~seed:3 program in
  let requests =
    Batch.random_requests program ~batch:spec.Campaign.samples
      ~seed:spec.Campaign.input_seed
  in
  let want, _ =
    Batch.run ~domains:1 ~faults:[| Some plan.Remap.plan |] program requests
  in
  check_responses_identical "one chip == plain faulted batch" want
    p.responses;
  Alcotest.(check int) "one chip: faults" plan.Remap.total_faults
    p.total_faults;
  Alcotest.(check (array int)) "one chip: node faults"
    [| p.total_faults |] p.node_faults;
  Alcotest.(check (array (float 0.0))) "one chip: node flip rates"
    [| p.flip_rate |] p.node_flip_rates;
  let two = Campaign.run ~domains:1 ~nodes:2 ~key:"mlp" program spec in
  let p = two.Campaign.points.(0) in
  let shards = Puma_cluster.Cluster.split_program program ~nodes:2 in
  let chip k seed =
    (Remap.build ~remap:true ~model ~seed shards.(k)).Remap.total_faults
  in
  Alcotest.(check int) "two chips: node faults sum" p.total_faults
    (Array.fold_left ( + ) 0 p.node_faults);
  Alcotest.(check (array int)) "two chips: per-chip seeds"
    [| chip 0 3; chip 1 (Batch.request_seed ~seed:3 ~index:1) |]
    p.node_faults;
  Alcotest.(check int) "two chips: one flip rate per chip" 2
    (Array.length p.node_flip_rates)

let test_faults_perturb_outputs () =
  let program = Lazy.force mlp32 in
  let spec =
    {
      Campaign.default_spec with
      rates = [ 2e-2 ];
      fault_seeds = [ 1 ];
      samples = 4;
    }
  in
  let r = Campaign.run ~domains:1 ~key:"mlp" program spec in
  let p = r.Campaign.points.(0) in
  Alcotest.(check bool) "faults realized" true (p.total_faults > 0);
  Alcotest.(check bool) "outputs perturbed" true (p.max_err_ulps > 0)

let test_drift_and_adc_perturb () =
  (* The deterministic impairments reach the outputs too: rate 0 leaves
     stuck/dead off, so any error comes from drift / ADC offset alone. *)
  let program = Lazy.force mlp32 in
  List.iter
    (fun (label, base) ->
      let spec =
        {
          Campaign.default_spec with
          base;
          rates = [ 0.0 ];
          fault_seeds = [ 1 ];
          samples = 2;
        }
      in
      let r = Campaign.run ~domains:1 ~key:"mlp" program spec in
      Alcotest.(check bool)
        (label ^ " perturbs outputs")
        true
        (r.Campaign.points.(0).max_err_ulps > 0))
    [
      ( "drift",
        { Fault.ideal with drift_tau_cycles = 1e6; drift_age_cycles = 5e5 } );
      ("adc offset", { Fault.ideal with adc_offset_sigma = 2.0 });
    ]

(* ---- Remapping ---- *)

let test_perms_without_faults_bit_identical () =
  (* A remap permutation alone (no physical faults) must not change any
     output: programming and MVM I/O route through the same permutation,
     and the materialized no-noise path is exact. *)
  let program = Lazy.force mlp32 in
  let dim = program.Puma_isa.Program.config.Config.mvmu_dim in
  let plan = Fault.plan ~seed:1 Fault.ideal in
  let reversal = Array.init dim (fun i -> dim - 1 - i) in
  Array.iteri
    (fun ti (tp : Puma_isa.Program.tile_program) ->
      List.iter
        (fun (img : Puma_isa.Program.mvmu_image) ->
          Hashtbl.replace plan.Fault.remap
            (ti, img.core_index, img.mvmu_index)
            { Fault.out_perm = Array.copy reversal;
              in_perm = Array.copy reversal })
        tp.Puma_isa.Program.mvmu_images)
    program.Puma_isa.Program.tiles;
  let requests = Batch.random_requests program ~batch:3 ~seed:5 in
  let plain, _ = Batch.run ~domains:1 program requests in
  let permuted, _ =
    Batch.run ~domains:1 ~faults:[| Some plan |] program requests
  in
  check_responses_identical "permuted" plain permuted

let test_remap_counts_and_flags () =
  let program = Lazy.force mlp64 in
  let model = Campaign.at_rate Fault.ideal 2e-3 in
  let off = Remap.build ~remap:false ~model ~seed:1 program in
  let on = Remap.build ~remap:true ~model ~seed:1 program in
  Alcotest.(check int) "fault count independent of remapping"
    off.Remap.total_faults on.Remap.total_faults;
  Alcotest.(check bool) "faults realized" true (on.Remap.total_faults > 0);
  Alcotest.(check int) "no perms without remap" 0 off.Remap.remapped_mvmus;
  Alcotest.(check (list string)) "no diags without remap" []
    (List.map Diag.to_string off.Remap.diags);
  Alcotest.(check int) "empty table" 0 (Hashtbl.length off.Remap.plan.Fault.remap);
  Alcotest.(check bool) "remap fills table" true (on.Remap.remapped_mvmus > 0);
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check bool) "stable codes" true
        (d.code = "E-FAULT" || d.code = "W-FAULT"))
    on.Remap.diags

let test_remap_capacity_errors () =
  (* A fifth of all lines dead: far beyond the spare capacity of the
     dense 64x64 blocks, so the pass must report E-FAULT errors. *)
  let program = Lazy.force mlp64 in
  let model = { Fault.ideal with dead_out_rate = 0.2; dead_in_rate = 0.2 } in
  let r = Remap.build ~model ~seed:2 program in
  Alcotest.(check bool) "capacity errors" true (Remap.errors r > 0)

let test_remap_ignores_weights_that_program_as_zero () =
  (* |w| < 2^-13 quantizes to raw 0: the crossbar stores nothing there,
     so a stuck device under such a weight is harmless and a line of
     them is a spare, not a live line. *)
  let b = Puma_graph.Builder.create "tiny" in
  let m =
    Puma_graph.Builder.const_matrix b ~name:"w"
      (Puma_util.Tensor.mat_init 32 32 (fun _ _ -> 1e-5))
  in
  let x = Puma_graph.Builder.input b ~name:"x" ~len:32 in
  Puma_graph.Builder.output b ~name:"y" (Puma_graph.Builder.mvm b m x);
  let config = { Config.sweetspot with mvmu_dim = 32 } in
  let program =
    (Compile.compile config (Puma_graph.Builder.finish b)).Compile.program
  in
  let model = { Fault.ideal with stuck_rate = 0.02; dead_out_rate = 0.1 } in
  let r = Remap.build ~model ~seed:3 program in
  Alcotest.(check bool) "faults realized" true (r.Remap.total_faults > 0);
  Alcotest.(check (list string)) "no live weight meets a fault" []
    (List.map Diag.to_string r.Remap.diags)

let test_remap_recovers_accuracy () =
  (* The acceptance experiment: at a moderate fault rate the remap pass
     must measurably reduce both the mean ulp error and the argmax flip
     rate (dead lines retire onto the spare padding lines). *)
  let program = Lazy.force mlp64 in
  let spec =
    {
      Campaign.default_spec with
      rates = [ 2e-3 ];
      fault_seeds = [ 1; 2; 3 ];
      samples = 8;
    }
  in
  let plain = Campaign.run ~domains:1 ~key:"mlp" program spec in
  let healed =
    Campaign.run ~domains:1 ~key:"mlp" program { spec with remap = true }
  in
  let mean f (r : Campaign.report) =
    Array.fold_left (fun acc p -> acc +. f p) 0.0 r.Campaign.points
    /. Float.of_int (Array.length r.Campaign.points)
  in
  let err r = mean (fun p -> p.Campaign.mean_err_ulps) r in
  let flips r = mean (fun p -> p.Campaign.flip_rate) r in
  Alcotest.(check bool)
    (Printf.sprintf "mean error reduced (%.2f -> %.2f)" (err plain)
       (err healed))
    true
    (err healed < err plain);
  Alcotest.(check bool)
    (Printf.sprintf "flip rate reduced (%.2f -> %.2f)" (flips plain)
       (flips healed))
    true
    (flips plain > 0.0 && flips healed < flips plain)

(* ---- Report rendering ---- *)

let test_report_json () =
  let program = Lazy.force mlp32 in
  let spec =
    {
      Campaign.default_spec with
      rates = [ 0.0; 1e-3 ];
      fault_seeds = [ 1; 2 ];
      samples = 2;
      remap = true;
    }
  in
  let report = Campaign.run ~domains:2 ~key:"mlp" program spec in
  let doc = Campaign.to_json report in
  (* The compact rendering must parse back, with one point per grid
     cell. *)
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string)) "model" (Some "mlp")
        (Option.bind (Json.member "model" j) Json.to_str);
      Alcotest.(check (option int)) "nodes" (Some 1)
        (match Json.member "nodes" j with
        | Some (Json.Int n) -> Some n
        | _ -> None);
      Alcotest.(check (option string)) "topology" (Some "mesh")
        (Option.bind (Json.member "topology" j) Json.to_str);
      Alcotest.(check (option bool)) "remap flag" (Some true)
        (match Json.member "remap" j with
        | Some (Json.Bool b) -> Some b
        | _ -> None);
      let points =
        Option.bind (Json.member "points" j) Json.to_list |> Option.get
      in
      Alcotest.(check int) "grid size" 4 (List.length points);
      List.iter
        (fun p ->
          List.iter
            (fun field ->
              Alcotest.(check bool)
                (field ^ " present")
                true
                (Json.member field p <> None))
            [
              "rate"; "fault_seed"; "total_faults"; "node_faults";
              "remapped_mvmus"; "fault_errors"; "fault_warnings";
              "max_err_ulps"; "mean_err_ulps"; "flip_rate";
              "node_flip_rates"; "mean_cycles";
            ])
        points;
      (* Rules separate the rate groups: the table ends with one rule,
         not a group's rule followed by the closing one. *)
      let lines =
        String.split_on_char '\n' (Format.asprintf "%a" Campaign.pp report)
        |> List.rev
      in
      let rule l = String.length l > 0 && l.[0] = '+' in
      match lines with
      | last :: before :: _ ->
          Alcotest.(check bool) "ends with a rule" true (rule last);
          Alcotest.(check bool) "only one closing rule" false (rule before)
      | _ -> Alcotest.fail "campaign table too short"

let () =
  Alcotest.run "fault"
    [
      ( "model",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "realize deterministic" `Quick
            test_realize_deterministic;
          Alcotest.test_case "ideal is null" `Quick test_realize_ideal_is_null;
        ] );
      ( "differential",
        [
          Alcotest.test_case "zero-fault == plain batch" `Quick
            test_zero_fault_differential;
          Alcotest.test_case "domain-count invariant" `Quick
            test_campaign_deterministic_across_domains;
          Alcotest.test_case "faults perturb" `Quick test_faults_perturb_outputs;
          Alcotest.test_case "drift and adc perturb" `Quick
            test_drift_and_adc_perturb;
          Alcotest.test_case "per-chip seed rule" `Quick test_chip_seed_rule;
        ] );
      ( "remap",
        [
          Alcotest.test_case "perms alone bit-identical" `Quick
            test_perms_without_faults_bit_identical;
          Alcotest.test_case "counts and flags" `Quick
            test_remap_counts_and_flags;
          Alcotest.test_case "capacity errors" `Quick
            test_remap_capacity_errors;
          Alcotest.test_case "zero raws are not live" `Quick
            test_remap_ignores_weights_that_program_as_zero;
          Alcotest.test_case "recovers accuracy" `Quick
            test_remap_recovers_accuracy;
        ] );
      ( "report",
        [ Alcotest.test_case "json" `Quick test_report_json ] );
    ]
