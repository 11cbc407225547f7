module Config = Puma_hwmodel.Config
module Fixed = Puma_util.Fixed

let magic = "PUMA"
let format_version = 1

(* ---- Writer ----

   [to_bytes] runs the writer twice over one description of the format:
   first over a sink that only counts bytes, then into a buffer of
   exactly that length. A growing buffer would leave a program's worth of
   freed doubling steps behind (tens of MB on a full-size model). *)

type sink = { out : bytes; counting : bool; mutable at : int }

let w_u8 s v =
  assert (v >= 0 && v < 256);
  if not s.counting then Bytes.set_uint8 s.out s.at v;
  s.at <- s.at + 1

let w_u16 s v =
  assert (v >= 0 && v < 65536);
  if not s.counting then Bytes.set_uint16_le s.out s.at v;
  s.at <- s.at + 2

let w_i32 s v =
  if not s.counting then Bytes.set_int32_le s.out s.at (Int32.of_int v);
  s.at <- s.at + 4

let w_f64 s v =
  if not s.counting then Bytes.set_int64_le s.out s.at (Int64.bits_of_float v);
  s.at <- s.at + 8

let w_raw s str =
  if not s.counting then Bytes.blit_string str 0 s.out s.at (String.length str);
  s.at <- s.at + String.length str

let w_string s str =
  w_i32 s (String.length str);
  w_raw s str

let w_i16_signed s v = w_u16 s (Puma_util.Bits.to_unsigned ~width:16 v)

let w_config s (c : Config.t) =
  w_i32 s c.mvmu_dim;
  w_i32 s c.mvmus_per_core;
  w_i32 s c.cores_per_tile;
  w_i32 s c.tiles_per_node;
  w_i32 s c.vfu_width;
  w_f64 s c.rf_multiplier;
  w_i32 s c.bits_per_cell;
  w_f64 s c.write_noise_sigma;
  w_f64 s c.frequency_ghz;
  w_i32 s c.num_fifos;
  w_i32 s c.fifo_depth;
  w_i32 s c.smem_bytes;
  w_i32 s c.imem_core_bytes;
  w_i32 s c.imem_tile_bytes

let w_code s instrs =
  w_i32 s (Array.length instrs);
  let n = Encode.program_bytes instrs in
  if not s.counting then Bytes.blit (Encode.encode_program instrs) 0 s.out s.at n;
  s.at <- s.at + n

let w_binding s (b : Program.io_binding) =
  w_string s b.name;
  w_i32 s b.tile;
  w_i32 s b.mem_addr;
  w_i32 s b.length;
  w_i32 s b.offset

let write s (p : Program.t) =
  w_raw s magic;
  w_u16 s format_version;
  w_config s p.config;
  w_i32 s (Array.length p.tiles);
  Array.iter
    (fun (tp : Program.tile_program) ->
      w_i32 s tp.tile_index;
      w_i32 s (Array.length tp.core_code);
      Array.iter (w_code s) tp.core_code;
      w_code s tp.tile_code;
      w_i32 s (List.length tp.mvmu_images);
      List.iter
        (fun (img : Program.mvmu_image) ->
          w_u8 s img.core_index;
          w_u8 s img.mvmu_index;
          (* A well-formed image is dim x dim; any other is kept whole
             as one row, so the round trip never loses a raw. *)
          let n = String.length img.image / 2 in
          let dim = p.config.mvmu_dim in
          let rows = if n = dim * dim then dim else 1 in
          w_i32 s rows;
          w_i32 s (n / rows);
          if not s.counting then
            for k = 0 to n - 1 do
              Bytes.set_int16_le s.out (s.at + (2 * k)) (Fixed.image_raw img.image k)
            done;
          s.at <- s.at + (2 * n))
        tp.mvmu_images)
    p.tiles;
  let w_bindings bs =
    w_i32 s (List.length bs);
    List.iter (w_binding s) bs
  in
  w_bindings p.inputs;
  w_bindings p.outputs;
  w_i32 s (List.length p.constants);
  List.iter
    (fun (b, data) ->
      w_binding s b;
      w_i32 s (Array.length data);
      Array.iter (w_i16_signed s) data)
    p.constants

let to_bytes p =
  let size = { out = Bytes.empty; counting = true; at = 0 } in
  write size p;
  let s = { out = Bytes.create size.at; counting = false; at = 0 } in
  write s p;
  assert (s.at = Bytes.length s.out);
  s.out

(* ---- Reader ---- *)

exception Malformed of string

type cursor = { data : bytes; mutable pos : int }

let need cur n =
  if cur.pos + n > Bytes.length cur.data then
    raise (Malformed (Printf.sprintf "truncated at byte %d (need %d more)" cur.pos n))

let r_u8 cur =
  need cur 1;
  let v = Char.code (Bytes.get cur.data cur.pos) in
  cur.pos <- cur.pos + 1;
  v

let r_u16 cur =
  let lo = r_u8 cur in
  let hi = r_u8 cur in
  lo lor (hi lsl 8)

let r_i32 cur =
  let acc = ref 0 in
  for k = 0 to 3 do
    acc := !acc lor (r_u8 cur lsl (8 * k))
  done;
  (* Sign-extend from 32 bits. *)
  Puma_util.Bits.of_unsigned ~width:32 !acc

let r_f64 cur =
  let acc = ref 0L in
  for k = 0 to 7 do
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (r_u8 cur)) (8 * k))
  done;
  Int64.float_of_bits !acc

let r_len cur what =
  let n = r_i32 cur in
  if n < 0 || n > 100_000_000 then
    raise (Malformed (Printf.sprintf "implausible %s length %d" what n));
  n

let r_string cur =
  let n = r_len cur "string" in
  need cur n;
  let s = Bytes.sub_string cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let r_i16_signed cur = Puma_util.Bits.of_unsigned ~width:16 (r_u16 cur)

let r_config cur : Config.t =
  let mvmu_dim = r_i32 cur in
  let mvmus_per_core = r_i32 cur in
  let cores_per_tile = r_i32 cur in
  let tiles_per_node = r_i32 cur in
  let vfu_width = r_i32 cur in
  let rf_multiplier = r_f64 cur in
  let bits_per_cell = r_i32 cur in
  let write_noise_sigma = r_f64 cur in
  let frequency_ghz = r_f64 cur in
  let num_fifos = r_i32 cur in
  let fifo_depth = r_i32 cur in
  let smem_bytes = r_i32 cur in
  let imem_core_bytes = r_i32 cur in
  let imem_tile_bytes = r_i32 cur in
  {
    mvmu_dim;
    mvmus_per_core;
    cores_per_tile;
    tiles_per_node;
    vfu_width;
    rf_multiplier;
    bits_per_cell;
    write_noise_sigma;
    frequency_ghz;
    num_fifos;
    fifo_depth;
    smem_bytes;
    imem_core_bytes;
    imem_tile_bytes;
  }

let r_code cur =
  let n = r_len cur "code" in
  need cur (n * Encode.width_bytes);
  let b = Bytes.sub cur.data cur.pos (n * Encode.width_bytes) in
  cur.pos <- cur.pos + (n * Encode.width_bytes);
  try Encode.decode_program b
  with Invalid_argument e -> raise (Malformed ("bad instruction: " ^ e))

let r_binding cur : Program.io_binding =
  let name = r_string cur in
  let tile = r_i32 cur in
  let mem_addr = r_i32 cur in
  let length = r_i32 cur in
  let offset = r_i32 cur in
  { name; tile; mem_addr; length; offset }

let of_bytes data =
  try
    let cur = { data; pos = 0 } in
    need cur 4;
    let m = Bytes.sub_string cur.data 0 4 in
    cur.pos <- 4;
    if m <> magic then raise (Malformed "not a PUMA program (bad magic)");
    let version = r_u16 cur in
    if version <> format_version then
      raise (Malformed (Printf.sprintf "unsupported format version %d" version));
    let config = r_config cur in
    (match Config.validate config with
    | Ok _ -> ()
    | Error e -> raise (Malformed ("invalid configuration: " ^ e)));
    let ntiles = r_len cur "tiles" in
    let tiles =
      Array.init ntiles (fun _ ->
          let tile_index = r_i32 cur in
          let ncores = r_len cur "core streams" in
          let core_code = Array.init ncores (fun _ -> r_code cur) in
          let tile_code = r_code cur in
          let nimages = r_len cur "images" in
          let mvmu_images =
            List.init nimages (fun _ ->
                let core_index = r_u8 cur in
                let mvmu_index = r_u8 cur in
                let rows = r_len cur "rows" in
                let cols = r_len cur "cols" in
                let n = rows * cols in
                need cur (2 * n);
                let image = Bytes.create (2 * n) in
                for k = 0 to n - 1 do
                  Bytes.set_int16_ne image (2 * k)
                    (Bytes.get_int16_le cur.data (cur.pos + (2 * k)))
                done;
                cur.pos <- cur.pos + (2 * n);
                {
                  Program.core_index;
                  mvmu_index;
                  image = Bytes.unsafe_to_string image;
                })
          in
          { Program.tile_index; core_code; tile_code; mvmu_images })
    in
    let r_bindings () =
      let n = r_len cur "bindings" in
      List.init n (fun _ -> r_binding cur)
    in
    let inputs = r_bindings () in
    let outputs = r_bindings () in
    let nconst = r_len cur "constants" in
    let constants =
      List.init nconst (fun _ ->
          let b = r_binding cur in
          let n = r_len cur "constant data" in
          (b, Array.init n (fun _ -> r_i16_signed cur)))
    in
    if cur.pos <> Bytes.length cur.data then
      raise (Malformed "trailing bytes after program");
    Ok { Program.config; tiles; inputs; outputs; constants }
  with Malformed e -> Error e

let save path p =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes p))

let load path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        of_bytes b)
  with Sys_error e -> Error e
