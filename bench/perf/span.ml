module Json = Puma_util.Json

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  on : bool;
  clock : unit -> int64;
  mutable stack : int list;
  mutable closed : span list;
  mutable next : int;
}

let create ?(clock = Monotonic_clock.now) ~enabled () =
  { on = enabled; clock; stack = []; closed = []; next = 0 }

let disabled = create ~enabled:false ()
let enabled t = t.on

let with_span t ?(req = -1) name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_ns = t.clock () in
    Fun.protect f ~finally:(fun () ->
        let stop_ns = t.clock () in
        t.stack <- List.tl t.stack;
        t.closed <- { id; name; parent; req; start_ns; stop_ns } :: t.closed)
  end

let spans t =
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) t.closed

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type self = { calls : int; self_s : float; total_s : float }

let dur_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

let self_times spans =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_s s.parent
          (dur_s s +. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = dur_s s in
      let own = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let acc =
        Option.value
          ~default:{ calls = 0; self_s = 0.0; total_s = 0.0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = acc.calls + 1; self_s = acc.self_s +. own; total_s = acc.total_s +. d })
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort (fun (na, a) (nb, b) -> compare (b.self_s, na) (a.self_s, nb))

let to_chrome spans =
  let t0 =
    List.fold_left (fun acc s -> if s.start_ns < acc then s.start_ns else acc)
      Int64.max_int spans
  in
  let us ns = Int64.to_float ns /. 1e3 in
  let event s =
    let cat =
      match String.index_opt s.name '.' with
      | Some i -> String.sub s.name 0 i
      | None -> s.name
    in
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String cat);
        ("ph", Json.String "X");
        ("ts", Json.Float (us (Int64.sub s.start_ns t0)));
        ("dur", Json.Float (us (Int64.sub s.stop_ns s.start_ns)));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("req", Json.Int s.req) ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event spans));
      ("displayTimeUnit", Json.String "ms");
    ]
