let diagnose (p : Program.t) =
  let config = p.config in
  let layout = Operand.layout config in
  let smem_words = config.smem_bytes / 2 in
  let num_tiles = Array.length p.tiles in
  let diags = ref [] in
  let report ~code ?tile ?core ?pc fmt =
    Printf.ksprintf
      (fun message ->
        diags :=
          { Diag.code; severity = Diag.Error; loc = { tile; core; pc }; message }
          :: !diags)
      fmt
  in
  (* A vector operand must stay inside one register space. *)
  let check_vec_reg ~tile ~core ~pc name base width =
    if base < 0 || base >= layout.Operand.total then
      report ~code:"E-REG" ~tile ~core ~pc "%s register %d out of range" name
        base
    else if width < 1 then
      report ~code:"E-REG" ~tile ~core ~pc "%s width %d < 1" name width
    else begin
      let space = Operand.space_of layout base in
      let space_end = Operand.base_of layout space + Operand.size_of layout space in
      if base + width > space_end then
        report ~code:"E-REG" ~tile ~core ~pc
          "%s range [%d, %d) crosses out of the %s space" name base
          (base + width)
          (Operand.space_name space)
    end
  in
  let check_sreg ~tile ~core ~pc name s =
    if s < 0 || s >= Operand.num_scalar_regs then
      report ~code:"E-SREG" ~tile ~core ~pc "%s scalar register %d out of range"
        name s
  in
  let check_smem ~tile ?core ~pc addr width =
    if addr < 0 || width < 1 || addr + width > smem_words then
      report ~code:"E-SMEM" ~tile ?core ~pc
        "shared-memory range [%d, %d) out of %d words" addr (addr + width)
        smem_words
  in
  let check_addr ~tile ~core ~pc addr width =
    match addr with
    | Instr.Imm_addr a -> check_smem ~tile ~core ~pc a width
    | Instr.Sreg_addr s -> check_sreg ~tile ~core ~pc "address" s
  in
  let check_count ~tile ?core ~pc count =
    if count < 0 || count > 255 then
      report ~code:"E-COUNT" ~tile ?core ~pc "count %d out of 0..255" count
  in
  let check_core_instr ~tile ~core ~pc len (i : Instr.t) =
    match i with
    | Mvm { mask; filter; stride } ->
        if mask = 0 then report ~code:"E-MASK" ~tile ~core ~pc "MVM with empty mask"
        else if mask lsr config.mvmus_per_core <> 0 then
          report ~code:"E-MASK" ~tile ~core ~pc "MVM mask 0x%x names a missing MVMU"
            mask;
        (* Both are 8-bit fields in the encoding. *)
        List.iter
          (fun (name, v) ->
            if v < 0 || v > 255 then
              report ~code:"E-MVMARG" ~tile ~core ~pc "MVM %s %d out of 0..255"
                name v)
          [ ("filter", filter); ("stride", stride) ]
    | Alu { op; dest; src1; src2; vec_width } ->
        check_vec_reg ~tile ~core ~pc "dest" dest vec_width;
        check_vec_reg ~tile ~core ~pc "src1" src1
          (if op = Subsample then 2 * vec_width else vec_width);
        if Instr.alu_op_arity op = 2 then
          check_vec_reg ~tile ~core ~pc "src2" src2 vec_width
    | Alui { dest; src1; vec_width; _ } ->
        check_vec_reg ~tile ~core ~pc "dest" dest vec_width;
        check_vec_reg ~tile ~core ~pc "src1" src1 vec_width
    | Alu_int { dest; src1; src2; _ } ->
        check_sreg ~tile ~core ~pc "dest" dest;
        check_sreg ~tile ~core ~pc "src1" src1;
        check_sreg ~tile ~core ~pc "src2" src2
    | Set { dest; _ } -> check_vec_reg ~tile ~core ~pc "dest" dest 1
    | Set_sreg { dest; _ } -> check_sreg ~tile ~core ~pc "dest" dest
    | Copy { dest; src; vec_width } ->
        check_vec_reg ~tile ~core ~pc "dest" dest vec_width;
        check_vec_reg ~tile ~core ~pc "src" src vec_width
    | Load { dest; addr; vec_width } ->
        check_vec_reg ~tile ~core ~pc "dest" dest vec_width;
        check_addr ~tile ~core ~pc addr vec_width
    | Store { src; addr; count; vec_width } ->
        check_vec_reg ~tile ~core ~pc "src" src vec_width;
        check_addr ~tile ~core ~pc addr vec_width;
        check_count ~tile ~core ~pc count
    | Jmp { pc = target } ->
        if target < 0 || target > len then
          report ~code:"E-TARGET" ~tile ~core ~pc
            "jump target %d outside stream of %d" target len
    | Brn { op = _; src1; src2; pc = target } ->
        check_sreg ~tile ~core ~pc "src1" src1;
        check_sreg ~tile ~core ~pc "src2" src2;
        if target < 0 || target > len then
          report ~code:"E-TARGET" ~tile ~core ~pc
            "branch target %d outside stream of %d" target len
    | Halt -> ()
    | Send _ | Receive _ ->
        report ~code:"E-STREAM" ~tile ~core ~pc
          "tile instruction in core stream at pc %d" pc
  in
  let check_tile_instr ~tile ~pc (i : Instr.t) =
    match i with
    | Send { mem_addr; fifo_id; target; vec_width } ->
        check_smem ~tile ~pc mem_addr vec_width;
        if fifo_id < 0 || fifo_id >= config.num_fifos then
          report ~code:"E-FIFO" ~tile ~pc "fifo %d out of %d" fifo_id
            config.num_fifos;
        if target < 0 || target >= num_tiles then
          report ~code:"E-TARGET" ~tile ~pc "send target tile %d out of %d"
            target num_tiles
    | Receive { mem_addr; fifo_id; count; vec_width } ->
        check_smem ~tile ~pc mem_addr vec_width;
        if fifo_id < 0 || fifo_id >= config.num_fifos then
          report ~code:"E-FIFO" ~tile ~pc "fifo %d out of %d" fifo_id
            config.num_fifos;
        check_count ~tile ~pc count
    | Halt -> ()
    | Mvm _ | Alu _ | Alui _ | Alu_int _ | Set _ | Set_sreg _ | Copy _
    | Load _ | Store _ | Jmp _ | Brn _ ->
        report ~code:"E-STREAM" ~tile ~pc "core instruction in tile stream"
  in
  Array.iter
    (fun (tp : Program.tile_program) ->
      let tile = tp.tile_index in
      if Array.length tp.core_code > config.cores_per_tile then
        report ~code:"E-STREAM" ~tile "more core streams than cores";
      Array.iteri
        (fun core code ->
          if Encode.program_bytes code > config.imem_core_bytes then
            report ~code:"E-IMEM" ~tile ~core
              "stream of %d instructions exceeds the %d-byte instruction memory"
              (Array.length code) config.imem_core_bytes;
          Array.iteri
            (fun pc i ->
              check_core_instr ~tile ~core ~pc (Array.length code) i)
            code)
        tp.core_code;
      if Encode.program_bytes tp.tile_code > config.imem_tile_bytes then
        report ~code:"E-IMEM" ~tile
          "tile stream of %d instructions exceeds the %d-byte instruction memory"
          (Array.length tp.tile_code)
          config.imem_tile_bytes;
      Array.iteri (fun pc i -> check_tile_instr ~tile ~pc i) tp.tile_code;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (img : Program.mvmu_image) ->
          if img.core_index < 0 || img.core_index >= config.cores_per_tile then
            report ~code:"E-IMAGE" ~tile "image core index %d out of range"
              img.core_index;
          if img.mvmu_index < 0 || img.mvmu_index >= config.mvmus_per_core then
            report ~code:"E-IMAGE" ~tile "image mvmu index %d out of range"
              img.mvmu_index;
          let bytes = 2 * config.mvmu_dim * config.mvmu_dim in
          if String.length img.image <> bytes then
            report ~code:"E-IMAGE" ~tile "image is %d bytes, expected %d (%dx%d)"
              (String.length img.image) bytes config.mvmu_dim config.mvmu_dim;
          let key = (img.core_index, img.mvmu_index) in
          if Hashtbl.mem seen key then
            report ~code:"E-IMAGE" ~tile ~core:img.core_index
              "mvmu %d is programmed by more than one image" img.mvmu_index;
          Hashtbl.replace seen key ())
        tp.mvmu_images)
    p.tiles;
  let check_binding kind (b : Program.io_binding) =
    if b.tile < 0 || b.tile >= num_tiles then
      report ~code:"E-BIND" "%s binding %S: tile %d out of range" kind b.name
        b.tile
    else if b.mem_addr < 0 || b.length < 1 || b.mem_addr + b.length > smem_words
    then
      report ~code:"E-BIND" ~tile:b.tile
        "%s binding %S: shared-memory range [%d, %d) out of %d words" kind
        b.name b.mem_addr (b.mem_addr + b.length) smem_words
  in
  List.iter (check_binding "input") p.inputs;
  List.iter (check_binding "output") p.outputs;
  List.iter
    (fun (b, data) ->
      check_binding "constant" b;
      if Array.length data <> b.Program.length then
        report ~code:"E-BIND" ~tile:b.Program.tile
          "constant binding data length %d <> binding length %d"
          (Array.length data) b.Program.length)
    p.constants;
  List.rev !diags

let check_exn p =
  match diagnose p with
  | [] -> ()
  | ds ->
      let buf = Buffer.create 256 in
      List.iter
        (fun d -> Buffer.add_string buf (Diag.to_string d ^ "\n"))
        ds;
      failwith ("Program check failed:\n" ^ Buffer.contents buf)
