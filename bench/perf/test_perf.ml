(* Unit tests of the benchmark's own logic on hand-built inputs: order
   statistics, the compare rules, span self times and the agreement of
   the metric registry with BENCHMARK.json. *)

module Json = Puma_util.Json

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 3.0 (Summary.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Summary.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Summary.median [ 7.0 ])

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Summary.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "two" [ 3.0; 1.0 ] (0.5, 2.0, 3.5);
  check "four" [ 1.0; 2.0; 3.0; 4.0 ] (1.25, 2.5, 3.75);
  check "ten" (List.init 10 (fun i -> Float.of_int (i + 1))) (2.75, 5.5, 8.25);
  check "three" [ 7.0; 1.0; 4.0 ] (1.0, 4.0, 7.0);
  check "one" [ 5.0 ] (5.0, 5.0, 5.0);
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Summary.spread (List.init 10 (fun i -> Float.of_int (i + 1))));
  Alcotest.check_raises "empty" (Invalid_argument "Summary: no values") (fun () ->
      ignore (Summary.median []))

let runs ?(failed = 0) workload values =
  List.mapi
    (fun i v ->
      { Compare.workload; seed = i; attempted = 10; failed; values = [ ("lat", v); ("tput", v) ] })
    values

let defs =
  Compare.
    [
      { name = "lat"; unit_ = "ms"; better = Lower; bound = Some 0.1 };
      { name = "tput"; unit_ = "1/s"; better = Higher; bound = None };
    ]

let verdict ?base_failed ?fresh_failed base fresh =
  let rows =
    Compare.compare defs ~base:(runs ?failed:base_failed "w" base)
      ~fresh:(runs ?failed:fresh_failed "w" fresh)
  in
  let row m = List.find (fun (r : Compare.row) -> r.metric = m) rows in
  ((row "lat").verdict, (row "ops_failed_frac").verdict, (row "tput").verdict)

let v = Alcotest.testable (fun ppf x -> Format.pp_print_string ppf (Compare.verdict_name x)) ( = )

let test_compare () =
  let lat (x, _, _) = x and fails (_, f, _) = f in
  Alcotest.check v "same runs" Compare.Identical (lat (verdict [ 5.0; 5.0 ] [ 5.0; 5.0 ]));
  Alcotest.check v "small change" Compare.Within
    (lat (verdict [ 100.; 101.; 99.; 100. ] [ 102.; 100.; 104.; 103. ]));
  Alcotest.check v "past the bound" Compare.Regressed
    (lat (verdict [ 100.; 101.; 99.; 100. ] [ 120.; 119.; 121.; 118. ]));
  Alcotest.check v "noisy" Compare.Unresolved
    (lat (verdict [ 50.; 100.; 150.; 100. ] [ 100.; 100.; 100.; 100. ]));
  Alcotest.check v "noisy but separated" Compare.Better
    (lat (verdict [ 50.; 100.; 150.; 100. ] [ 40.; 30.; 20.; 45. ]));
  Alcotest.check v "unbounded metric" Compare.Info
    (let _, _, t = verdict [ 1.0 ] [ 2.0 ] in
     t);
  Alcotest.check v "more failures" Compare.Regressed
    (fails (verdict ~fresh_failed:1 [ 1.0 ] [ 1.0 ]));
  Alcotest.check v "same failures" Compare.Identical
    (fails (verdict ~base_failed:1 ~fresh_failed:1 [ 1.0 ] [ 1.0 ]));
  let rows = Compare.compare defs ~base:(runs "a" [ 1.0 ]) ~fresh:(runs "b" [ 1.0 ]) in
  Alcotest.(check int) "workloads on one side only" 0 (List.length rows)

let test_claim () =
  let base = List.init 10 (fun i -> 100.0 +. Float.of_int (i mod 3)) in
  let better = List.init 10 (fun i -> 90.0 +. Float.of_int (i mod 3)) in
  let c = Compare.claim Compare.Lower ~base ~fresh:better in
  Alcotest.(check int) "all pairs won" 10 c.wins;
  Alcotest.(check bool) "met" true c.met;
  (* One loss and one tie: 8 of 10 wins is below nine tenths. *)
  let mixed = List.mapi (fun i x -> if i = 0 then 200.0 else if i = 1 then List.nth base 1 else x) better in
  let c = Compare.claim Compare.Lower ~base ~fresh:mixed in
  Alcotest.(check int) "wins" 8 c.wins;
  Alcotest.(check bool) "not met" false c.met;
  (* Every pair won, but the gain is inside the base runs' quartiles. *)
  let base = [ 10.; 20.; 30.; 40. ] and fresh = [ 9.; 19.; 29.; 39. ] in
  let c = Compare.claim Compare.Lower ~base ~fresh in
  Alcotest.(check bool) "gap below spread" false c.met;
  let c = Compare.claim Compare.Higher ~base:[ 1.; 1.; 1. ] ~fresh:[ 2.; 2.; 2. ] in
  Alcotest.(check bool) "higher is better" true c.met

(* A clock that replays hand-made timestamps, in seconds. *)
let fake_clock times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        Int64.of_float (t *. 1e9)
    | [] -> Alcotest.fail "clock read too often"

let test_spans () =
  (* a: [0, 10] holds b: [2, 5] and c: [6, 7]; b holds d: [3, 4]. *)
  let t = Span.create ~clock:(fake_clock [ 0.; 2.; 3.; 4.; 5.; 6.; 7.; 10. ]) ~enabled:true () in
  Span.with_span t "a" (fun () ->
      Span.with_span t "b" (fun () -> Span.with_span t ~req:7 "d" ignore);
      Span.with_span t "c" ignore);
  let spans = Span.spans t in
  Alcotest.(check (list string)) "start order" [ "a"; "b"; "d"; "c" ]
    (List.map (fun (s : Span.span) -> s.name) spans);
  let selfs = Span.self_times spans in
  let self name = (List.assoc name selfs).Span.self_s in
  Alcotest.check close "a" 6.0 (self "a");
  Alcotest.check close "b" 2.0 (self "b");
  Alcotest.check close "c" 1.0 (self "c");
  Alcotest.check close "d" 1.0 (self "d");
  Alcotest.check close "self times add up to the root" 10.0
    (List.fold_left (fun acc (_, (s : Span.self)) -> acc +. s.self_s) 0.0 selfs);
  let d = List.find (fun (s : Span.span) -> s.name = "d") spans in
  let b = List.find (fun (s : Span.span) -> s.name = "b") spans in
  Alcotest.(check int) "parent" b.id d.parent;
  Alcotest.(check int) "request id" 7 d.req;
  (match Json.parse (Json.to_string (Span.to_chrome spans)) with
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Alcotest.(check int) "events" 4 (List.length evs);
          Alcotest.(check (option string)) "complete events" (Some "X")
            (Option.bind (Json.member "ph" (List.hd evs)) Json.to_str)
      | _ -> Alcotest.fail "no traceEvents")
  | Error e -> Alcotest.fail e);
  (* A span closes when its body raises, and a disabled recorder records
     nothing. *)
  let t = Span.create ~clock:(fake_clock [ 0.; 1. ]) ~enabled:true () in
  (try Span.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "closed on raise" 1 (List.length (Span.spans t));
  Alcotest.(check int) "disabled" 0
    (Span.with_span Span.disabled "x" (fun () -> 0) + List.length (Span.spans Span.disabled))

let test_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let defs = match Compare.defs_of_benchmark j with Ok d -> d | Error e -> Alcotest.fail e in
  let expect =
    List.map
      (fun (e : Registry.entry) -> (e.name, e.unit_, e.better))
      (Registry.end_to_end @ Registry.per_layer)
  in
  let got = List.map (fun (d : Compare.metric_def) -> (d.name, d.unit_, d.better)) defs in
  Alcotest.(check int) "metric count" (List.length expect) (List.length got);
  List.iter2
    (fun (n, u, b) (n', u', b') ->
      Alcotest.(check string) "name" n n';
      Alcotest.(check string) (n ^ " unit") u u';
      Alcotest.(check bool) (n ^ " direction") true (b = b'))
    expect got

let () =
  Alcotest.run "perf"
    [
      ( "summary",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_compare;
          Alcotest.test_case "claim" `Quick test_claim;
        ] );
      ("span", [ Alcotest.test_case "self times and chrome export" `Quick test_spans ]);
      ("registry", [ Alcotest.test_case "agrees with BENCHMARK.json" `Quick test_benchmark_json ]);
    ]
