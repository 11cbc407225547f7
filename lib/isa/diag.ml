type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type loc = { tile : int option; core : int option; pc : int option }

type t = { code : string; severity : severity; loc : loc; message : string }

let make severity ~code ?tile ?core ?pc fmt =
  Printf.ksprintf
    (fun message -> { code; severity; loc = { tile; core; pc }; message })
    fmt

let error ~code = make Error ~code
let warning ~code = make Warning ~code
let info ~code = make Info ~code

let loc_to_string { tile; core; pc } =
  match (tile, core, pc) with
  | None, None, None -> "program"
  | Some t, None, None -> Printf.sprintf "tile %d" t
  | Some t, Some c, None -> Printf.sprintf "tile %d core %d" t c
  | Some t, Some c, Some pc -> Printf.sprintf "tile %d core %d pc %d" t c pc
  | Some t, None, Some pc -> Printf.sprintf "tile %d tcu pc %d" t pc
  | None, Some c, pc ->
      (* Not produced by the analyzers, but render something sensible. *)
      Printf.sprintf "core %d%s" c
        (match pc with Some pc -> Printf.sprintf " pc %d" pc | None -> "")
  | None, None, Some pc -> Printf.sprintf "pc %d" pc

let compare a b =
  let key d =
    ( d.loc.tile,
      d.loc.core,
      d.loc.pc,
      severity_rank d.severity,
      d.code,
      d.message )
  in
  Stdlib.compare (key a) (key b)

let pp fmt d =
  Format.fprintf fmt "%s[%s] %s: %s"
    (severity_name d.severity)
    d.code (loc_to_string d.loc) d.message

let to_string d = Format.asprintf "%a" pp d

let fail ~code ?tile fmt =
  Printf.ksprintf
    (fun m -> failwith (to_string (error ~code ?tile "%s" m)))
    fmt

let to_json d =
  let module Json = Puma_util.Json in
  let int_opt = function Some v -> Json.Int v | None -> Json.Null in
  Json.Obj
    [
      ("code", Json.String d.code);
      ("severity", Json.String (severity_name d.severity));
      ("tile", int_opt d.loc.tile);
      ("core", int_opt d.loc.core);
      ("pc", int_opt d.loc.pc);
      ("message", Json.String d.message);
    ]
