(* Binary encoding of tuples for the paged storage layer.

   Scalar values are encoded against the relation's schema (enumerations
   as bare ordinals, reconstructed from the schema's enum info on
   decode); reference values are self-described, with nested enum values
   carrying their enumeration name and ordinal. *)

let u16_max = 0xFFFF

let put_u16 buf n =
  if n < 0 || n > u16_max then Errors.type_error "codec: u16 overflow (%d)" n;
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF))

let put_i64 buf n =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xFF))
  done

let put_string buf s =
  put_u16 buf (String.length s);
  Buffer.add_string buf s

type cursor = { bytes : Bytes.t; mutable pos : int }

let cursor bytes = { bytes; pos = 0 }

(* Every cursor read is bounds-checked: running off the end of the
   buffer means the stored bytes are damaged (short read, torn write),
   and must surface as a typed {!Errors.Corruption}, never as an
   [Invalid_argument] crash from [Bytes.get]. *)
let need c k =
  if c.pos + k > Bytes.length c.bytes then
    Errors.corruption
      "codec: truncated record (need %d bytes at offset %d of %d)" k c.pos
      (Bytes.length c.bytes)

let get_u8 c =
  need c 1;
  let n = Char.code (Bytes.get c.bytes c.pos) in
  c.pos <- c.pos + 1;
  n

let get_u16 c =
  let lo = get_u8 c in
  let hi = get_u8 c in
  lo lor (hi lsl 8)

let get_i64 c =
  let n = ref 0 in
  for i = 0 to 7 do
    n := !n lor (get_u8 c lsl (8 * i))
  done;
  !n

let get_string c =
  let len = get_u16 c in
  need c len;
  let s = Bytes.sub_string c.bytes c.pos len in
  c.pos <- c.pos + len;
  s

(* Adler-32 over [len] bytes of [bytes] starting at [pos]: the checksum
   word stored in heap pages and at the tail of database snapshots.
   Fast, order-sensitive, and catches the single-byte and truncation
   damage the fault injector produces. *)
let adler32 bytes ~pos ~len =
  let a = ref 1 and b = ref 0 in
  for i = pos to pos + len - 1 do
    a := (!a + Char.code (Bytes.get bytes i)) mod 65521;
    b := (!b + !a) mod 65521
  done;
  (!b lsl 16) lor !a

(* Self-described value encoding (used inside references). *)
let rec put_value buf (v : Value.t) =
  match v with
  | Value.VInt n ->
    Buffer.add_char buf 'i';
    put_i64 buf n
  | Value.VStr s ->
    Buffer.add_char buf 's';
    put_string buf s
  | Value.VBool b ->
    Buffer.add_char buf 'b';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.VEnum (info, ord) ->
    Buffer.add_char buf 'e';
    put_string buf info.Value.enum_name;
    put_u16 buf ord
  | Value.VRef r ->
    Buffer.add_char buf 'r';
    put_string buf r.Value.target;
    put_u16 buf (List.length r.Value.key);
    List.iter (put_value buf) r.Value.key

let rec get_value c : Value.t =
  match Char.chr (get_u8 c) with
  | 'i' -> Value.VInt (get_i64 c)
  | 's' -> Value.VStr (get_string c)
  | 'b' -> Value.VBool (get_u8 c <> 0)
  | 'e' ->
    let name = get_string c in
    let ord = get_u16 c in
    (* Labels are not stored; equality and ordering only need the
       enumeration's name and the ordinal. *)
    Value.VEnum ({ Value.enum_name = name; labels = [||] }, ord)
  | 'r' ->
    let target = get_string c in
    let n = get_u16 c in
    let key = List.init n (fun _ -> get_value c) in
    Value.VRef { Value.target; key }
  | tag -> Errors.corruption "codec: unknown value tag %C" tag

(* Schema-directed encoding: enumerations shrink to their ordinal and
   are reconstructed with the schema's full enum info. *)
let put_typed buf ty (v : Value.t) =
  match ty, v with
  | Vtype.TEnum _, Value.VEnum (_, ord) ->
    Buffer.add_char buf 'o';
    put_u16 buf ord
  | _, v -> put_value buf v

let get_typed c ty : Value.t =
  need c 1;
  match Char.chr (Char.code (Bytes.get c.bytes c.pos)) with
  | 'o' -> (
    c.pos <- c.pos + 1;
    let ord = get_u16 c in
    match ty with
    | Vtype.TEnum info -> Value.VEnum (info, ord)
    | _ -> Errors.corruption "codec: ordinal for a non-enum attribute")
  | _ -> get_value c

let put_tuple buf schema (t : Tuple.t) =
  Array.iteri (fun i v -> put_typed buf (Schema.type_at schema i) v) t

let encode_tuple schema t =
  let buf = Buffer.create 32 in
  put_tuple buf schema t;
  Buffer.to_bytes buf

let decode_tuple schema bytes : Tuple.t =
  (* codec.decode.corrupt: damage the first byte of (a copy of) the
     record before decoding.  0xFF is not a value tag, so the damage is
     always detected and surfaces as {!Errors.Corruption}. *)
  let bytes =
    if Failpoint.should_fire "codec.decode.corrupt" then
      if Bytes.length bytes = 0 then
        Errors.corruption "codec: injected corruption on empty record"
      else begin
        let damaged = Bytes.copy bytes in
        Bytes.set damaged 0 '\xFF';
        damaged
      end
    else bytes
  in
  let c = { bytes; pos = 0 } in
  Array.init (Schema.arity schema) (fun i -> get_typed c (Schema.type_at schema i))
