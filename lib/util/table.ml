type align = Left | Right
type row = Cells of string list | Sep

type t = {
  title : string;
  headers : string list;
  mutable aligns : align list;
  mutable host : string list; (* headers of the host-clock columns *)
  mutable rows : row list; (* reverse order *)
}

let create ~title ~headers =
  let aligns =
    List.mapi (fun i _ -> if i = 0 then Left else Right) headers
  in
  { title; headers; aligns; host = []; rows = [] }

let set_aligns t aligns = t.aligns <- aligns

let set_host_columns t names =
  List.iter
    (fun n ->
      if not (List.mem n t.headers) then
        invalid_arg ("Table.set_host_columns: no column " ^ n))
    names;
  t.host <- names

let add_row t cells =
  let n = List.length t.headers in
  let len = List.length cells in
  let cells =
    if len >= n then cells
    else cells @ List.init (n - len) (fun _ -> "")
  in
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      cells
  in
  measure t.headers;
  List.iter (function Cells c -> measure c | Sep -> ()) rows;
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let aligns = Array.of_list t.aligns in
  let align_of i = if i < Array.length aligns then aligns.(i) else Right in
  let render_cells cells =
    let padded = List.mapi (fun i c -> pad (align_of i) widths.(i) c) cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let sep_line =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep_line ^ "\n");
  Buffer.add_string buf (render_cells t.headers ^ "\n");
  Buffer.add_string buf (sep_line ^ "\n");
  List.iter
    (fun r ->
      match r with
      | Cells c -> Buffer.add_string buf (render_cells c ^ "\n")
      | Sep -> Buffer.add_string buf (sep_line ^ "\n"))
    rows;
  Buffer.add_string buf sep_line;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ();
  print_newline ()

let to_json t =
  let pinned cells =
    Json.List
      (List.filteri
         (fun i _ ->
           match List.nth_opt t.headers i with
           | Some h -> not (List.mem h t.host)
           | None -> true)
         cells
      |> List.map (fun c -> Json.String c))
  in
  Json.Obj
    [
      ("title", Json.String t.title);
      ("headers", pinned t.headers);
      ( "rows",
        Json.List
          (List.rev t.rows
          |> List.filter_map (function Cells c -> Some (pinned c) | Sep -> None)
          ) );
    ]

let fmt_float f = Printf.sprintf "%.3f" f
let fmt_sci f = Printf.sprintf "%.3g" f

let fmt_ratio f =
  if f >= 100.0 then Printf.sprintf "%.0fx" f
  else if f >= 10.0 then Printf.sprintf "%.1fx" f
  else Printf.sprintf "%.2fx" f

let fmt_pct f = Printf.sprintf "%.1f%%" (100.0 *. f)
