module Json = Puma_util.Json
module Program = Puma_isa.Program
module Partition = Puma_compiler.Partition
module Fabric = Puma_noc.Fabric

type t = {
  mvmu_dim : int;
  chips : int;
  scheme : Partition.scheme;
  topology : Fabric.topology;
  arrival_spec : string;
  report : Json.t;
}

let version = 3

let of_report ?(arrival_spec = "") ?(chips = 1)
    ?(scheme = Partition.Pipelined) ?(topology = Fabric.Mesh2d)
    (models : Engine.model array) report =
  {
    mvmu_dim = models.(0).Engine.program.Program.config.mvmu_dim;
    chips;
    scheme;
    topology;
    arrival_spec;
    report = Engine.to_json report;
  }

let to_json t =
  Json.Obj
    [
      ("version", Json.Int version);
      ("mvmu_dim", Json.Int t.mvmu_dim);
      ("chips", Json.Int t.chips);
      ("scheme", Json.String (Partition.scheme_name t.scheme));
      ("topology", Json.String (Fabric.topology_name t.topology));
      ("arrival_spec", Json.String t.arrival_spec);
      ("report", t.report);
    ]

let save path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (to_json t) ^ "\n"))

(* --- Reading the report --- *)

exception Bad of string

let need what = function
  | Some v -> v
  | None -> raise (Bad (what ^ " missing or ill-typed"))

let field get obj name = need name (Option.bind (Json.member name obj) get)

let int_field ?(min = min_int) obj name =
  let n = field Json.to_int obj name in
  if n < min then raise (Bad (Printf.sprintf "%s %d is below %d" name n min));
  n

let str_field = field Json.to_str
let list_field = field Json.to_list

(* The report's models, each passed to [f name priority queue_limit
   slo_ms]. *)
let read_models report f =
  match list_field report "models" with
  | [] -> raise (Bad "trace lists no models")
  | models ->
      Array.of_list models
      |> Array.map (fun m ->
             f (str_field m "name") (int_field m "priority")
               (int_field ~min:0 m "queue_limit")
               (match Json.member "slo_ms" m with
               | None | Some Json.Null -> None
               | Some j -> Some (need "slo_ms" (Json.to_float j))))

let read_workload report =
  let models = List.length (list_field report "models") in
  let prev = ref 0 in
  list_field report "requests"
  |> List.mapi (fun i r ->
         try
           let model = int_field ~min:0 r "model" in
           if model >= models then raise (Bad "model index out of range");
           prev := int_field ~min:!prev r "arrival_cycle";
           { Engine.cycle = !prev; model }
         with Bad e -> raise (Bad (Printf.sprintf "request %d: %s" i e)))
  |> Array.of_list

let read_config report =
  {
    Engine.nodes = int_field ~min:1 report "nodes";
    max_batch = int_field ~min:1 report "max_batch";
    input_seed = int_field report "input_seed";
  }

let decode doc =
  let v = int_field doc "version" in
  if v <> version then
    raise
      (Bad (Printf.sprintf "unsupported trace version %d (want %d)" v version));
  let report = need "report" (Json.member "report" doc) in
  ignore (read_models report (fun _ _ _ _ -> ()));
  ignore (read_workload report);
  ignore (read_config report);
  {
    mvmu_dim = int_field ~min:1 doc "mvmu_dim";
    chips = int_field ~min:1 doc "chips";
    scheme = need "scheme" (Partition.scheme_of_string (str_field doc "scheme"));
    topology =
      need "topology" (Fabric.topology_of_string (str_field doc "topology"));
    arrival_spec = str_field doc "arrival_spec";
    report;
  }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | content -> (
      match Result.map decode (Json.parse content) with
      | Ok t -> Ok t
      | Error e | (exception Bad e) -> Error (Printf.sprintf "%s: %s" path e))

let models_of t ~compile =
  read_models t.report (fun name priority queue_limit slo_ms ->
      Engine.model ~priority ~queue_limit ?slo_ms ~name (compile name))

let workload_of t = read_workload t.report

let config_of t = read_config t.report

(* --- Replay --- *)

(* The first path at which [got] differs from [want]: objects and lists
   are walked entry by entry, anything else compares as printed. *)
let rec first_difference path got want =
  let entries = function
    | Json.Obj fields -> Some (List.map (fun (k, v) -> ("." ^ k, v)) fields)
    | Json.List items ->
        Some (List.mapi (fun i v -> (Printf.sprintf "[%d]" i, v)) items)
    | _ -> None
  in
  let rec walk = function
    | [], [] -> None
    | (k, a) :: got, (k', b) :: want when k = k' -> (
        match first_difference (path ^ k) a b with
        | None -> walk (got, want)
        | d -> d)
    | (k, a) :: _, _ ->
        Some (Printf.sprintf "%s%s: %s, trace recorded no such entry" path k
                (Json.to_string a))
    | [], (k, b) :: _ ->
        Some (Printf.sprintf "%s%s: absent from the replay, trace recorded %s"
                path k (Json.to_string b))
  in
  match (entries got, entries want) with
  | Some g, Some w -> walk (g, w)
  | _ ->
      let a = Json.to_string got and b = Json.to_string want in
      if a = b then None
      else Some (Printf.sprintf "%s: %s, trace recorded %s" path a b)

let check t report =
  match first_difference "report" (Engine.to_json report) t.report with
  | None -> Ok ()
  | Some e -> Error e
