(** Simulated physical memory: a flat byte array with little-endian
    integer accessors, as DRAM behind the direct map. *)

type t = { bytes : Bytes.t; size : int }

exception Bad_phys_access of { addr : int; size : int }

let create ~size = { bytes = Bytes.make size '\000'; size }

let check t addr size =
  if addr < 0 || size < 0 || addr + size > t.size then
    raise (Bad_phys_access { addr; size })

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.bytes addr)

let write_u8 t addr v =
  check t addr 1;
  Bytes.set t.bytes addr (Char.chr (v land 0xff))

(* Byte-at-a-time forms for sizes other than 1, 2, 4 and 8. The word
   accessors below load and store exactly the bytes these would. *)
let rec read_bytes b addr size acc i =
  if i = size then acc
  else
    read_bytes b addr size
      (acc lor (Char.code (Bytes.get b (addr + i)) lsl (8 * i)))
      (i + 1)

let write_bytes b addr size v =
  for i = 0 to size - 1 do
    Bytes.set b (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

(** Little-endian load of [size] ∈ {1,2,4,8} bytes. 8-byte loads are
    truncated to OCaml's 63-bit int range (top bit lost — documented
    simulator restriction). The common sizes are single word accesses;
    each returns exactly what the byte loop would. *)
let read t addr ~size =
  check t addr size;
  match size with
  | 1 -> Bytes.get_uint8 t.bytes addr
  | 2 -> Bytes.get_uint16_le t.bytes addr
  | 4 -> Int32.to_int (Bytes.get_int32_le t.bytes addr) land 0xffff_ffff
  | 8 -> Int64.to_int (Bytes.get_int64_le t.bytes addr) land max_int
  | _ -> read_bytes t.bytes addr size 0 0 land max_int

(** Little-endian store of the low [size] bytes of [v]. An OCaml int has
    63 bits, so the byte loop's eighth byte never carries bit 63; the
    8-byte word store masks it off to write the same bytes. *)
let write t addr ~size v =
  check t addr size;
  match size with
  | 1 -> Bytes.set_uint8 t.bytes addr v
  | 2 -> Bytes.set_uint16_le t.bytes addr v
  | 4 -> Bytes.set_int32_le t.bytes addr (Int32.of_int v)
  | 8 ->
    Bytes.set_int64_le t.bytes addr
      (Int64.logand (Int64.of_int v) 0x7fff_ffff_ffff_ffffL)
  | _ -> write_bytes t.bytes addr size v

let blit_string t ~dst s =
  check t dst (String.length s);
  Bytes.blit_string s 0 t.bytes dst (String.length s)

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  Bytes.blit t.bytes src t.bytes dst len

let read_string t ~src ~len =
  check t src len;
  Bytes.sub_string t.bytes src len

let fill t ~dst ~len c =
  check t dst len;
  Bytes.fill t.bytes dst len c

(** Copy of the first [len] bytes (default: all) of physical memory, for
    before/after diffing by the fault-containment harness. *)
let snapshot ?len t =
  let len = match len with Some l -> Int.min l t.size | None -> t.size in
  Bytes.sub t.bytes 0 len

(** Contiguous [(offset, length)] ranges over [0, length snap) where the
    current contents differ from [snap]. Equal stretches are skipped
    eight bytes at a time so diffing megabytes of unchanged DRAM between
    fault injections stays cheap. *)
let diff_ranges t snap =
  let n = Int.min (Bytes.length snap) t.size in
  let ranges = ref [] in
  let run_start = ref (-1) in
  let flush upto =
    if !run_start >= 0 then begin
      ranges := (!run_start, upto - !run_start) :: !ranges;
      run_start := -1
    end
  in
  let i = ref 0 in
  while !i < n do
    if
      !run_start < 0 && !i + 8 <= n
      && Bytes.get_int64_ne t.bytes !i = Bytes.get_int64_ne snap !i
    then i := !i + 8
    else begin
      if Bytes.get t.bytes !i <> Bytes.get snap !i then begin
        if !run_start < 0 then run_start := !i
      end
      else flush !i;
      incr i
    end
  done;
  flush n;
  List.rev !ranges
