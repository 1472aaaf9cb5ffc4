(** Simulated physical memory: DRAM behind the direct map, with
    little-endian integer accessors.

    Memory is an array of 4 KiB pages. Every page that was never written
    is the one shared {!zero_page}, so creating 64 MiB of DRAM costs a
    page table, not 64 MiB of zeroed bytes. A page becomes private on its
    first write in the current generation; {!snapshot} starts a new
    generation, so the pages it shares with memory are copied before they
    change (copy-on-write) and {!diff_ranges} can skip every page that is
    still physically the snapshot's. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* shared by every never-written page of every memory; [writable] copies
   it before a store, so it stays all zeroes *)
let zero_page = Bytes.make page_size '\000'

type t = {
  size : int;
  pages : Bytes.t array;
  owner : int array;
      (** generation in which [pages.(i)] was made private; a page whose
          owner is not [gen] may be shared and is copied before a write *)
  mutable gen : int;
}

(** The page-pointer prefix of memory at the time of {!snapshot}. Its
    pages are never written again. *)
type snapshot = { snap_len : int; snap_pages : Bytes.t array }

exception Bad_phys_access of { addr : int; size : int }

let create ~size =
  let n = (size + page_mask) lsr page_bits in
  { size; pages = Array.make n zero_page; owner = Array.make n (-1); gen = 0 }

let[@inline never] bad_access addr size =
  raise (Bad_phys_access { addr; size })

(* written so that no sum wraps: [addr + size] would for an address near
   [max_int] *)
let[@inline] check t addr size =
  if addr < 0 || size < 0 || addr > t.size - size then bad_access addr size

let[@inline never] make_private t i =
  let p = Bytes.copy t.pages.(i) in
  t.pages.(i) <- p;
  t.owner.(i) <- t.gen;
  p

(** Page [i], made private to the current generation first. *)
let[@inline] writable t i =
  if t.owner.(i) = t.gen then t.pages.(i) else make_private t i

(* Word access inside one page. The caller has tested
   [off + size <= page_size] and every page is [page_size] bytes long, so
   that test is the bounds check; the checked [Bytes.get/set_*_le] would
   repeat it against the page's header, one more cache line per page. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let get16_le p off =
  if Sys.big_endian then swap16 (get16 p off) else get16 p off

let get32_le p off =
  if Sys.big_endian then swap32 (get32 p off) else get32 p off

let get64_le p off =
  if Sys.big_endian then swap64 (get64 p off) else get64 p off

let set16_le p off v =
  if Sys.big_endian then set16 p off (swap16 v) else set16 p off v

let set32_le p off v =
  if Sys.big_endian then set32 p off (swap32 v) else set32 p off v

let set64_le p off v =
  if Sys.big_endian then set64 p off (swap64 v) else set64 p off v

(* the page holding [addr], for reading *)
let page t addr = t.pages.(addr lsr page_bits)

let get_byte t addr = Bytes.get_uint8 (page t addr) (addr land page_mask)

let set_byte t addr v =
  Bytes.set_uint8 (writable t (addr lsr page_bits)) (addr land page_mask) v

let read_u8 t addr =
  check t addr 1;
  get_byte t addr

let write_u8 t addr v =
  check t addr 1;
  set_byte t addr (v land 0xff)

(* Byte-at-a-time forms, for sizes other than 1, 2, 4 and 8 and for
   accesses that cross a page. The word accessors below load and store
   exactly the bytes these would. *)
let rec read_bytes t addr size acc i =
  if i = size then acc
  else
    read_bytes t addr size (acc lor (get_byte t (addr + i) lsl (8 * i))) (i + 1)

let write_bytes t addr size v =
  for i = 0 to size - 1 do
    set_byte t (addr + i) ((v lsr (8 * i)) land 0xff)
  done

(** Little-endian load of [size] ∈ {1,2,4,8} bytes. 8-byte loads are
    truncated to OCaml's 63-bit int range (top bit lost — documented
    simulator restriction). Within a page the common sizes are single
    word accesses; each returns exactly what the byte loop would. An
    access that crosses a page takes the byte loop. *)
let read t addr ~size =
  check t addr size;
  let off = addr land page_mask in
  if off + size > page_size then read_bytes t addr size 0 0 land max_int
  else
    match size with
    | 1 -> Char.code (Bytes.unsafe_get (page t addr) off)
    | 2 -> get16_le (page t addr) off
    | 4 -> Int32.to_int (get32_le (page t addr) off) land 0xffff_ffff
    | 8 -> Int64.to_int (get64_le (page t addr) off) land max_int
    | _ -> read_bytes t addr size 0 0 land max_int

(** Little-endian store of the low [size] bytes of [v]. An OCaml int has
    63 bits, so the byte loop's eighth byte never carries bit 63; the
    8-byte word store masks it off to write the same bytes. *)
let write t addr ~size v =
  check t addr size;
  let off = addr land page_mask in
  if off + size > page_size then write_bytes t addr size v
  else
    let i = addr lsr page_bits in
    match size with
    | 1 -> Bytes.unsafe_set (writable t i) off (Char.unsafe_chr (v land 0xff))
    | 2 -> set16_le (writable t i) off v
    | 4 -> set32_le (writable t i) off (Int32.of_int v)
    | 8 ->
      set64_le (writable t i) off
        (Int64.logand (Int64.of_int v) 0x7fff_ffff_ffff_ffffL)
    | _ -> write_bytes t addr size v

(* length of the piece of [addr, addr + len) that lies in [addr]'s page *)
let piece addr len = Int.min len (page_size - (addr land page_mask))

(* The piecewise loops below are top-level functions that take every
   value they use as an argument: a local closure would be a minor-heap
   allocation per call, and [blit] backs the [memcpy] native. *)

let rec blit_string_from t s src dst len =
  if len > 0 then begin
    let n = piece dst len in
    Bytes.blit_string s src
      (writable t (dst lsr page_bits))
      (dst land page_mask) n;
    blit_string_from t s (src + n) (dst + n) (len - n)
  end

let blit_string t ~dst s =
  let len = String.length s in
  check t dst len;
  blit_string_from t s 0 dst len

(* one page-bounded piece of [blit]; the destination page is made
   private first, so a source on the same page is read from its copy *)
let blit_piece t src dst n =
  let d = writable t (dst lsr page_bits) in
  Bytes.blit (page t src) (src land page_mask) d (dst land page_mask) n

let rec blit_up t src dst len =
  if len > 0 then begin
    let n = Int.min (piece src len) (piece dst len) in
    blit_piece t src dst n;
    blit_up t (src + n) (dst + n) (len - n)
  end

(* [src_end], [dst_end] are exclusive; a piece ends at both and starts
   no lower than either one's page *)
let rec blit_down t src_end dst_end len =
  if len > 0 then begin
    let n =
      Int.min len
        (Int.min
           (((src_end - 1) land page_mask) + 1)
           (((dst_end - 1) land page_mask) + 1))
    in
    blit_piece t (src_end - n) (dst_end - n) n;
    blit_down t (src_end - n) (dst_end - n) (len - n)
  end

(** [Bytes.blit] semantics, overlapping ranges included: pieces are
    copied upwards when the destination is below the source and
    downwards otherwise, as memmove does. *)
let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if dst <= src then blit_up t src dst len
  else blit_down t (src + len) (dst + len) len

let rec read_into t b src pos len =
  if pos < len then begin
    let n = piece src (len - pos) in
    Bytes.blit (page t src) (src land page_mask) b pos n;
    read_into t b (src + n) (pos + n) len
  end

let read_string t ~src ~len =
  check t src len;
  let b = Bytes.create len in
  read_into t b src 0 len;
  Bytes.unsafe_to_string b

let rec fill_from t dst len c =
  if len > 0 then begin
    let n = piece dst len in
    Bytes.fill (writable t (dst lsr page_bits)) (dst land page_mask) n c;
    fill_from t (dst + n) (len - n) c
  end

let fill t ~dst ~len c =
  check t dst len;
  fill_from t dst len c

(** The first [len] bytes (default: all) of physical memory, for
    before/after diffing by the fault-containment harness. Costs a copy
    of the page pointers: the pages themselves are shared, and a write
    after this copies its page first. *)
let snapshot ?len t =
  let len = match len with Some l -> Int.min l t.size | None -> t.size in
  let snap =
    {
      snap_len = len;
      snap_pages = Array.sub t.pages 0 ((len + page_mask) lsr page_bits);
    }
  in
  t.gen <- t.gen + 1;
  snap

(** Contiguous [(offset, length)] ranges over the snapshot's length
    where the current contents differ from [snap]. A page still
    physically shared with the snapshot is equal and skipped whole, so
    the cost follows the pages written since; the others are compared
    eight bytes at a time. A range that runs over a page boundary is
    reported as one range. *)
let diff_ranges t snap =
  let n = Int.min snap.snap_len t.size in
  let ranges = ref [] in
  let run_start = ref (-1) in
  let flush upto =
    if !run_start >= 0 then begin
      ranges := (!run_start, upto - !run_start) :: !ranges;
      run_start := -1
    end
  in
  for p = 0 to ((n + page_mask) lsr page_bits) - 1 do
    let base = p lsl page_bits in
    let cur = t.pages.(p) and old = snap.snap_pages.(p) in
    if cur == old then flush base
    else begin
      let stop = Int.min page_size (n - base) in
      let i = ref 0 in
      while !i < stop do
        if
          !run_start < 0 && !i + 8 <= stop
          && Bytes.get_int64_ne cur !i = Bytes.get_int64_ne old !i
        then i := !i + 8
        else begin
          if Bytes.get cur !i <> Bytes.get old !i then begin
            if !run_start < 0 then run_start := base + !i
          end
          else flush (base + !i);
          incr i
        end
      done
    end
  done;
  flush n;
  List.rev !ranges
