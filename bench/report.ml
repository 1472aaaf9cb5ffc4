(* The one report shape every gated bench target writes.

   A report holds the target's name, its config, named row tables,
   scalars and gates, and is written to BENCH_<target>.json as

     {"target": …, "config": {…}, "tables": {"<name>": [{…}, …]},
      "scalars": {…}, "gates": [{"name", "bound", "observed", "pass"}],
      "passed": …}

   Row fields are declared once, as columns: the same declaration prints
   the stdout table and writes the JSON rows. Every gate is recorded,
   passing or not; [finish] writes the file first and only then exits 1
   on a failed gate, so the artifact and the exit status always agree. *)

type v =
  | I of int
  | F of int * float  (** digits after the point, value *)
  | S of string
  | B of bool
  | L of v list
  | O of (string * v) list

type 'r col = { key : string; head : string; show : bool; get : 'r -> v }

(* [head] defaults to [key]; [show:false] keeps a field out of the stdout
   table (it still reaches the JSON) *)
let col ?head ?(show = true) key get =
  { key; head = Option.value head ~default:key; show; get }

type gate = { name : string; bound : string; observed : v; pass : bool }

type t = {
  target : string;
  config : (string * v) list;
  mutable tables : (string * v) list;
  mutable scalars : (string * v) list;
  mutable gates : gate list;
}

let create target config =
  { target; config; tables = []; scalars = []; gates = [] }

let rec render = function
  | I n -> string_of_int n
  | F (d, x) -> Printf.sprintf "%.*f" d x
  | S s -> s
  | B b -> string_of_bool b
  | L vs -> "[" ^ String.concat " " (List.map render vs) ^ "]"
  | O kvs ->
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ render v) kvs)

(* Print [rows] as an aligned stdout table (text left, numbers right)
   and record them as the JSON table [name]. *)
let table t name cols rows =
  let shown = List.filter (fun c -> c.show) cols in
  let cells = List.map (fun r -> List.map (fun c -> c.get r) shown) rows in
  let pad i c =
    let width w row = max w (String.length (render (List.nth row i))) in
    let w = List.fold_left width (String.length c.head) cells in
    match cells with
    | row :: _ when (match List.nth row i with S _ -> true | _ -> false) ->
      Printf.sprintf "%-*s" w
    | _ -> Printf.sprintf "%*s" w
  in
  let pads = List.mapi pad shown in
  let line texts =
    print_endline
      (" " ^ String.concat "" (List.map2 (fun p s -> " " ^ p s) pads texts))
  in
  line (List.map (fun c -> c.head) shown);
  List.iter (fun row -> line (List.map render row)) cells;
  let obj r = O (List.map (fun c -> (c.key, c.get r)) cols) in
  t.tables <- t.tables @ [ (name, L (List.map obj rows)) ]

let scalar t name v =
  Printf.printf "  %s: %s\n" name (render v);
  t.scalars <- t.scalars @ [ (name, v) ]

let gate t name ~bound observed pass =
  Printf.printf "  %s %s: %s (%s)\n"
    (if pass then "ok  " else "FAIL")
    name (render observed) bound;
  t.gates <- t.gates @ [ { name; bound; observed; pass } ]

let equal t name ~expected observed =
  gate t name ~bound:("= " ^ render expected) observed (observed = expected)

let at_least t name ?(digits = 3) ~bound x =
  gate t name ~bound:(Printf.sprintf ">= %g" bound) (F (digits, x)) (x >= bound)

let at_most t name ?(digits = 3) ~bound x =
  gate t name ~bound:(Printf.sprintf "<= %g" bound) (F (digits, x)) (x <= bound)

let zero t name n = gate t name ~bound:"= 0" (I n) (n = 0)

(* The RCU coherence contract every churned run must keep: no stale
   inline-cache allow, no failed send, every publication retired. *)
let coherence t ?(send_errors = 0) ~stale ~publications ~retired name =
  gate t (name ^ " coherence")
    ~bound:"stale_allows = 0, send_errors = 0, retired = publications"
    (O [ ("stale_allows", I stale); ("send_errors", I send_errors);
         ("publications", I publications); ("retired", I retired) ])
    (stale = 0 && send_errors = 0 && retired = publications)

(* ---- JSON ---- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* objects break one member per line; list items (table rows, gates)
   stay on one line each *)
let rec json ?indent v =
  let seq o c items =
    match indent with
    | Some ind when items <> [] ->
      let ind' = ind ^ "  " in
      o ^ "\n" ^ ind' ^ String.concat (",\n" ^ ind') items ^ "\n" ^ ind ^ c
    | _ -> o ^ String.concat ", " items ^ c
  in
  match v with
  | I n -> string_of_int n
  | F (_, x) when not (Float.is_finite x) -> "null"
  | F (d, x) -> Printf.sprintf "%.*f" d x
  | S s -> escape s
  | B b -> string_of_bool b
  | L vs -> seq "[" "]" (List.map json vs)
  | O kvs ->
    let indent = Option.map (fun ind -> ind ^ "  ") indent in
    seq "{" "}" (List.map (fun (k, v) -> escape k ^ ": " ^ json ?indent v) kvs)

let to_json t =
  let gate g =
    O [ ("name", S g.name); ("bound", S g.bound); ("observed", g.observed);
        ("pass", B g.pass) ]
  in
  json ~indent:""
    (O
       [
         ("target", S t.target);
         ("config", O t.config);
         ("tables", O t.tables);
         ("scalars", O t.scalars);
         ("gates", L (List.map gate t.gates));
         ("passed", B (List.for_all (fun g -> g.pass) t.gates));
       ])

(* Write BENCH_<target>.json, report the gates, and exit 1 if any
   failed. *)
let finish t =
  let file = "BENCH_" ^ t.target ^ ".json" in
  let oc = open_out file in
  output_string oc (to_json t ^ "\n");
  close_out oc;
  let failed = List.filter (fun g -> not g.pass) t.gates in
  Printf.printf "\n  gates: %d/%d passed; wrote %s\n"
    (List.length t.gates - List.length failed)
    (List.length t.gates) file;
  List.iter
    (fun g ->
      Printf.eprintf "%s: FAIL: %s: observed %s, bound %s\n" t.target g.name
        (render g.observed) g.bound)
    failed;
  if failed <> [] then exit 1
