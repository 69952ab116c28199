(* Helpers shared by the workloads: order statistics, a streaming digest
   sink for rendered output, process facts and full-precision JSON. *)

module Json = Mdp_prelude.Json

let now_ns = Mdp_obs.Clock.now_ns
let secs_since = Mdp_obs.Clock.elapsed_s
let ms_of_ns ns = float_of_int ns /. 1e6

(* ----- order statistics ----- *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  match sorted_array l with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p l =
  match sorted_array l with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* The highest percentile, up to p99, with at least ten samples beyond
   it (nearest rank); the median when there are too few samples for
   any percentile above it. *)
let tail l =
  let a = sorted_array l in
  let n = Array.length a in
  let k = min (n - 11) (int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1) in
  if k <= (n - 1) / 2 then median l else a.(k)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes
   them (the default "exclusive" method), so spreads read the same here
   and in any external check. *)
let quartiles l =
  let a = sorted_array l in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* ----- digests ----- *)

let hex s = Digest.to_hex (Digest.string s)

(* A formatter that hashes what it is given in fixed 64 KiB blocks, so a
   rendered report is digested without being held in memory and the
   digest depends only on the bytes, not on how the formatter flushes. *)
type sink = { buf : Buffer.t; mutable acc : string; mutable bytes : int }

let block = 65536

let feed s str pos len =
  Buffer.add_substring s.buf str pos len;
  s.bytes <- s.bytes + len;
  while Buffer.length s.buf >= block do
    let rest = Buffer.sub s.buf block (Buffer.length s.buf - block) in
    s.acc <- Digest.string (s.acc ^ Digest.string (Buffer.sub s.buf 0 block));
    Buffer.clear s.buf;
    Buffer.add_string s.buf rest
  done

(* Render with [pp] into a sink; returns (hex digest, bytes rendered). *)
let render pp =
  let s = { buf = Buffer.create (2 * block); acc = ""; bytes = 0 } in
  let ppf = Format.make_formatter (feed s) ignore in
  pp ppf;
  Format.pp_print_flush ppf ();
  (Digest.to_hex (Digest.string (s.acc ^ Buffer.contents s.buf)), s.bytes)

(* ----- process facts ----- *)

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> String.split_on_char '\n' text
  | exception Sys_error _ -> []

let field_after prefix line =
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    Some (String.trim (String.sub line n (String.length line - n)))
  else None

(* The process's peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mb () =
  List.find_map (field_after "VmHWM:") (read_lines "/proc/self/status")
  |> Option.map (fun v -> Scanf.sscanf v "%d" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

(* An [Mdp_obs] counter as recorded so far (0 when metrics were off). *)
let counter name =
  float_of_int
    (Option.value (List.assoc_opt name (Mdp_obs.Metrics.snapshot ()).counters) ~default:0)

let dedup_hit_ratio () =
  let hits = counter "lts/dedup_hits" in
  hits /. Float.max 1. (hits +. counter "lts/dedup_misses")

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

let machine () =
  let cpu =
    List.find_map (field_after "model name") (read_lines "/proc/cpuinfo")
    |> Option.map (fun v ->
           String.trim (String.sub v 1 (String.length v - 1)))
    |> Option.value ~default:"unknown"
  in
  Json.Obj
    [
      ("nproc", Json.int (Domain.recommended_domain_count ()));
      ("cpu", Json.Str cpu);
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ----- JSON with every digit ----- *)

(* [Mdp_prelude.Json] prints numbers with %g; measurements keep all
   their digits here. *)
let rec to_json buf = function
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | Json.Num f when Float.is_finite f ->
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.Num _ -> Buffer.add_string buf "null"
  | Json.List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_json buf v)
      l;
    Buffer.add_char buf ']'
  | Json.Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Json.to_string (Json.Str k));
        Buffer.add_char buf ':';
        to_json buf v)
      kvs;
    Buffer.add_char buf '}'
  | (Json.Null | Json.Bool _ | Json.Str _) as v ->
    Buffer.add_string buf (Json.to_string ~indent:false v)

let json_string v =
  let buf = Buffer.create 1024 in
  to_json buf v;
  Buffer.contents buf

let num_member k j =
  match Json.member k j with Some (Json.Num f) -> Some f | _ -> None
