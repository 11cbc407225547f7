type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_into buf f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else
    (* %.17g roundtrips any double; trim via shortest-exact search. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

(* [lines]: a list holding lists or objects puts each element on a new
   line; everything else prints compactly. *)
let rec print ~lines buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> float_into buf f
  | String s -> escape_into buf s
  | List l ->
      let break =
        lines && List.exists (function List _ | Obj _ -> true | _ -> false) l
      in
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          if break then Buffer.add_char buf '\n';
          print ~lines buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          print ~lines buf v)
        fields;
      Buffer.add_char buf '}'

let to_buffer = print ~lines:false

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_string_lines v =
  let buf = Buffer.create 4096 in
  print ~lines:true buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of int * string

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (st.pos, msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some got when got = c -> st.pos <- st.pos + 1
  | Some got -> error st (Printf.sprintf "expected %C, found %C" c got)
  | None -> error st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if st.pos >= String.length st.src then error st "unterminated escape";
        let e = st.src.[st.pos] in
        st.pos <- st.pos + 1;
        match e with
        | '"' -> Buffer.add_char buf '"'; go ()
        | '\\' -> Buffer.add_char buf '\\'; go ()
        | '/' -> Buffer.add_char buf '/'; go ()
        | 'b' -> Buffer.add_char buf '\b'; go ()
        | 'f' -> Buffer.add_char buf '\012'; go ()
        | 'n' -> Buffer.add_char buf '\n'; go ()
        | 'r' -> Buffer.add_char buf '\r'; go ()
        | 't' -> Buffer.add_char buf '\t'; go ()
        | 'u' ->
            if st.pos + 4 > String.length st.src then error st "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error st "bad \\u escape"
            in
            st.pos <- st.pos + 4;
            (* Encode the code point as UTF-8 (surrogate pairs are kept as
               two separate 3-byte sequences — fine for round-tripping our
               own ASCII output). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | c -> error st (Printf.sprintf "bad escape \\%c" c))
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_int = ref true in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  let digits () =
    let n0 = st.pos in
    while
      st.pos < String.length st.src
      && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done;
    if st.pos = n0 then error st "expected digit"
  in
  digits ();
  if peek st = Some '.' then begin
    is_int := false;
    st.pos <- st.pos + 1;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_int := false;
      st.pos <- st.pos + 1;
      (match peek st with
      | Some ('+' | '-') -> st.pos <- st.pos + 1
      | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_int then
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)
  else Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> error st "expected ',' or '}'"
        in
        fields []
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List (List.rev (v :: acc))
          | _ -> error st "expected ',' or ']'"
        in
        elements []
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then error st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "at offset %d: %s" pos msg)

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_str = function String s -> Some s | _ -> None
