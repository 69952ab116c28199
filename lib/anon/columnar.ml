open Mdp_prelude

(* ------------------------------------------------------------------ *)
(* Compiled representation *)

(* Dense dictionary codes of one column, assigned in first-appearance
   row order, so codes folded into class keys give classes in the naive
   first-seen grouping order for free. *)
type codes = { code : int array; size : int }

type col = {
  nums : float array;  (* numeric content; [nan] where none *)
  is_num : Bytes.t;  (* '\001' where {!Value.numeric} is [Some] *)
  first_non_numeric : int;  (* [max_int] when the column is numeric *)
  mutable ckeys : codes option;
      (* rows coded by their *rendered* cell string, exactly the key the
         naive oracle's classes concatenate: two cells share a code iff
         the naive engine puts them in the same class *)
  mutable ekeys : (codes * int) option;
      (* rows coded up to value equality ([equal_key]), for per-value
         frequency counts, with the code of [Suppressed] (-1 when
         absent) *)
}

type t = { ds : Dataset.t; nrows : int; quasi : int list; cols : col array }

let float_bits x = Int64.to_string (Int64.bits_of_float x)

(* One key per value up to equality: numeric values collapse to their
   float content (an [Int] equals the [Float] of its value), interval
   bounds go by bits (Float.equal semantics), the rest structurally. *)
let equal_key v =
  match Value.numeric v with
  | Some x -> "n" ^ float_bits x
  | None -> (
    match v with
    | Value.Str s -> "s" ^ s
    | Value.Interval (a, b) -> "v" ^ float_bits a ^ "," ^ float_bits b
    | Value.Suppressed -> "x"
    | Value.Int _ | Value.Float _ -> assert false)

let compile_col ds ~col:c =
  let nrows = Dataset.nrows ds in
  let nums = Array.make nrows Float.nan in
  let is_num = Bytes.make nrows '\000' in
  let first_non_numeric = ref max_int in
  for r = 0 to nrows - 1 do
    match Value.numeric (Dataset.get ds ~row:r ~col:c) with
    | Some x ->
      nums.(r) <- x;
      Bytes.set is_num r '\001'
    | None -> if !first_non_numeric = max_int then first_non_numeric := r
  done;
  {
    nums;
    is_num;
    first_non_numeric = !first_non_numeric;
    ckeys = None;
    ekeys = None;
  }

let compile ds =
  {
    ds;
    nrows = Dataset.nrows ds;
    quasi = Dataset.quasi_indices ds;
    cols = Array.init (Dataset.ncols ds) (fun c -> compile_col ds ~col:c);
  }

let source t = t.ds

(* Intern every cell of column [c] under [key], in row order. *)
let dictionary t c key =
  let dict = Interner.create () in
  let code =
    Array.init t.nrows (fun r ->
        Interner.intern dict (key (Dataset.get t.ds ~row:r ~col:c)))
  in
  (dict, { code; size = Interner.size dict })

let ckeys t c =
  let col = t.cols.(c) in
  match col.ckeys with
  | Some k -> k
  | None ->
    let _, k = dictionary t c Value.to_string in
    col.ckeys <- Some k;
    k

let ekeys t c =
  let col = t.cols.(c) in
  match col.ekeys with
  | Some k -> k
  | None ->
    let dict, k = dictionary t c equal_key in
    let suppressed =
      Option.value (Interner.find dict (equal_key Value.Suppressed)) ~default:(-1)
    in
    col.ekeys <- Some (k, suppressed);
    (k, suppressed)

(* ------------------------------------------------------------------ *)
(* Hashed equivalence classes *)

(* Dense class code per row: fold the per-column ckeys through an int-
   pair interner, one hash probe per (row, column). The final pass
   assigns fresh codes in row-scan order, so class codes come out in
   first-appearance order — the same order the naive string-keyed
   group-by produces. *)
let class_codes t ~by =
  match by with
  | [] -> (Array.make t.nrows 0, if t.nrows = 0 then 0 else 1)
  | c0 :: rest ->
    let k0 = ckeys t c0 in
    List.fold_left
      (fun (acc, _) c ->
        let ck = (ckeys t c).code in
        let pair = Intcode.create ~size:(2 * t.nrows) () in
        let out = Array.make t.nrows 0 in
        for r = 0 to t.nrows - 1 do
          out.(r) <- Intcode.code pair acc.(r) ck.(r)
        done;
        (out, Intcode.size pair))
      (k0.code, k0.size) rest

let buckets_of_codes codes nclasses =
  let buckets = Array.make nclasses [] in
  for r = Array.length codes - 1 downto 0 do
    let c = codes.(r) in
    buckets.(c) <- r :: buckets.(c)
  done;
  Array.to_list buckets

(* ------------------------------------------------------------------ *)
(* Mondrian: in-place index-range partitioning *)

(* k-th smallest (by Float.compare, the order the naive sort uses) of
   a[lo, hi) — iterative three-way quickselect with median-of-three
   pivots, O(range) expected, scratch-destructive. *)
let select a lo hi rank =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let median3 x y z =
    if Float.compare x y <= 0 then
      if Float.compare y z <= 0 then y
      else if Float.compare x z <= 0 then z
      else x
    else if Float.compare x z <= 0 then x
    else if Float.compare y z <= 0 then z
    else y
  in
  let lo = ref lo and hi = ref hi and rank = ref rank in
  let result = ref a.(!lo) in
  let continue = ref true in
  while !continue do
    if !hi - !lo <= 1 then begin
      result := a.(!lo);
      continue := false
    end
    else begin
      let mid = !lo + ((!hi - !lo) / 2) in
      let p = median3 a.(!lo) a.(mid) a.(!hi - 1) in
      let lt = ref !lo and i = ref !lo and gt = ref (!hi - 1) in
      while !i <= !gt do
        let c = Float.compare a.(!i) p in
        if c < 0 then begin
          swap !lt !i;
          incr lt;
          incr i
        end
        else if c > 0 then begin
          swap !i !gt;
          decr gt
        end
        else incr i
      done;
      let nlt = !lt - !lo in
      let neq = !gt - !lt + 1 in
      if !rank < nlt then hi := !lt
      else if !rank < nlt + neq then begin
        result := p;
        continue := false
      end
      else begin
        rank := !rank - nlt - neq;
        lo := !gt + 1
      end
    end
  done;
  !result

type partitioner = {
  idx : int array;  (* row permutation; leaves are contiguous ranges *)
  qcols : int array;  (* quasi columns, in Dataset.quasi_indices order *)
  vals : float array array;
      (* vals.(q).(i) = quasi value of row idx.(i): kept permuted in step
         with idx, so every range scan, median selection and split test
         reads memory sequentially instead of through idx (the scattered
         arr.(idx.(i)) gathers dominated the first cut of this engine). *)
  mask : Bytes.t;  (* scratch: which side of the median position i takes *)
  iscratch : int array;
  fscratch : float array;
  k : int;
}

let make_partitioner t ~k =
  let qcols = Array.of_list t.quasi in
  {
    idx = Array.init t.nrows Fun.id;
    qcols;
    vals = Array.map (fun c -> Array.copy t.cols.(c).nums) qcols;
    mask = Bytes.make t.nrows '\000';
    iscratch = Array.make t.nrows 0;
    fscratch = Array.make t.nrows 0.0;
    k;
  }

(* One Mondrian step on idx[lo, hi): [Some mid] leaves idx (and the
   aligned vals columns) stably partitioned around the chosen median,
   [None] marks a final leaf. Mirrors the naive step exactly: widest
   range first (stable on ties), strictly-less-than-median goes left
   preserving row order, both sides must keep k rows. The split side of
   every position is decided (and counted) into [mask] first; idx and
   vals are only permuted once the split is known k-valid, so a failed
   column attempt leaves the order later columns see unchanged, like
   the naive List.partition-and-discard. *)
let step p lo hi =
  let len = hi - lo in
  if len < 2 * p.k then None
  else begin
    let ranked =
      List.sort
        (fun (_, w1) (_, w2) -> Float.compare w2 w1)
        (List.init (Array.length p.qcols) (fun q ->
             let a = p.vals.(q) in
             let lo_v = ref Float.infinity and hi_v = ref Float.neg_infinity in
             for i = lo to hi - 1 do
               let x = a.(i) in
               lo_v := Float.min !lo_v x;
               hi_v := Float.max !hi_v x
             done;
             (q, !hi_v -. !lo_v)))
    in
    let rec try_cols = function
      | [] -> None
      | (q, width) :: rest ->
        if width <= 0.0 then None
        else begin
          let a = p.vals.(q) in
          Array.blit a lo p.fscratch lo len;
          let median = select p.fscratch lo hi (len / 2) in
          let nleft = ref 0 in
          for i = lo to hi - 1 do
            if a.(i) < median then begin
              Bytes.set p.mask i '\001';
              incr nleft
            end
            else Bytes.set p.mask i '\000'
          done;
          let mid = lo + !nleft in
          if mid - lo >= p.k && hi - mid >= p.k then begin
            let wl = ref lo and wr = ref mid in
            for i = lo to hi - 1 do
              if Bytes.get p.mask i = '\001' then begin
                p.iscratch.(!wl) <- p.idx.(i);
                incr wl
              end
              else begin
                p.iscratch.(!wr) <- p.idx.(i);
                incr wr
              end
            done;
            Array.blit p.iscratch lo p.idx lo len;
            for j = 0 to Array.length p.qcols - 1 do
              let v = p.vals.(j) in
              let wl = ref lo and wr = ref mid in
              for i = lo to hi - 1 do
                if Bytes.get p.mask i = '\001' then begin
                  p.fscratch.(!wl) <- v.(i);
                  incr wl
                end
                else begin
                  p.fscratch.(!wr) <- v.(i);
                  incr wr
                end
              done;
              Array.blit p.fscratch lo v lo len
            done;
            Some mid
          end
          else try_cols rest
        end
    in
    try_cols ranked
  end

(* Sequential recursion; leaves accumulate reversed (rightmost first).
   [depth] is the number of splits above this range — observed per leaf
   so the metrics histogram shows how deep the Mondrian tree goes. *)
let rec explore p depth lo hi acc =
  match step p lo hi with
  | None ->
    Mdp_obs.Metrics.observe "mondrian/leaf_depth" depth;
    (lo, hi) :: acc
  | Some mid ->
    explore p (depth + 1) mid hi (explore p (depth + 1) lo mid acc)

let partition_ranges t ~k =
  Mdp_obs.Metrics.span "mondrian/partition" @@ fun () ->
  Mdp_obs.Metrics.add "columnar/rows" t.nrows;
  let p = make_partitioner t ~k in
  let ranges = List.rev (explore p 0 0 t.nrows []) in
  Mdp_obs.Metrics.add "mondrian/partitions" (List.length ranges);
  (p, ranges)

(* The naive engine's checks and messages, in its order. *)
let validate_for_mondrian ~k t =
  if k < 1 then Error "mondrian: k must be at least 1"
  else if t.nrows < k then Error "mondrian: fewer rows than k"
  else begin
    (* First non-numeric quasi cell in row-major order, to report the
       same failure as the naive row-by-row scan. *)
    let bad = ref None in
    List.iter
      (fun c ->
        let first = t.cols.(c).first_non_numeric in
        match !bad with
        | Some (r, _) when first >= r -> ()
        | _ -> if first < max_int then bad := Some (first, c))
      t.quasi;
    match !bad with
    | Some (r, c) ->
      Error
        (Printf.sprintf "mondrian: non-numeric quasi value at row %d col %d" r c)
    | None -> Ok ()
  end

(* One generalised value per (leaf, quasi column), shared by every row
   of the leaf; rows map to leaves through one int per row rather than
   one boxed value per quasi cell. *)
let materialise t p ranges =
  let nq = Array.length p.qcols in
  let qpos = Array.make (Dataset.ncols t.ds) (-1) in
  Array.iteri (fun q c -> qpos.(c) <- q) p.qcols;
  let part_of = Array.make t.nrows 0 in
  let part_vals = Array.make (List.length ranges) [||] in
  List.iteri
    (fun pid (lo, hi) ->
      let vs = Array.make (max nq 1) Value.Suppressed in
      for q = 0 to nq - 1 do
        let a = p.vals.(q) in
        let lo_v = ref Float.infinity and hi_v = ref Float.neg_infinity in
        for i = lo to hi - 1 do
          let x = a.(i) in
          lo_v := Float.min !lo_v x;
          hi_v := Float.max !hi_v x
        done;
        vs.(q) <-
          (if Float.equal !lo_v !hi_v then
             Dataset.get t.ds ~row:p.idx.(lo) ~col:p.qcols.(q)
           else Value.interval !lo_v (!hi_v +. 1.0))
          (* +1: intervals are [lo, hi) and must cover hi itself. *)
      done;
      part_vals.(pid) <- vs;
      for i = lo to hi - 1 do
        part_of.(p.idx.(i)) <- pid
      done)
    ranges;
  let ds' =
    Dataset.init ~attrs:(Dataset.attrs t.ds) ~nrows:t.nrows
      ~f:(fun ~row ~col ->
        let q = qpos.(col) in
        if q >= 0 then part_vals.(part_of.(row)).(q)
        else Dataset.get t.ds ~row ~col)
  in
  (ds', part_of, part_vals)

(* Anonymise and keep the compiled form. The release plan's per-quasi-
   column class-key dictionaries are seeded from the partition
   structure: every row of a leaf shares one generalised value per
   column, so seeding renders one string per (leaf, column) where the
   lazy builder would render one per row. Interning happens at each
   leaf's first row in row-scan order, so code assignment (dense,
   first-appearance order, leaves with equal renderings share a code)
   is exactly what the lazy builder produces — class semantics,
   including any merging of equal renderings, are unchanged. The
   [ekeys] side stays lazy. *)
let mondrian_release ~k t =
  match validate_for_mondrian ~k t with
  | Error e -> Error e
  | Ok () ->
    let p, ranges = partition_ranges t ~k in
    let ds', part_of, part_vals = materialise t p ranges in
    let plan = compile ds' in
    let nq = Array.length p.qcols in
    if nq > 0 && plan.nrows > 0 then begin
      let dicts = Array.init nq (fun _ -> Interner.create ()) in
      let codes = Array.init nq (fun _ -> Array.make plan.nrows 0) in
      let pc = Array.init nq (fun _ -> Array.make (Array.length part_vals) (-1)) in
      for r = 0 to plan.nrows - 1 do
        let pid = part_of.(r) in
        if pc.(0).(pid) < 0 then
          for q = 0 to nq - 1 do
            pc.(q).(pid) <-
              Interner.intern dicts.(q) (Value.to_string part_vals.(pid).(q))
          done;
        for q = 0 to nq - 1 do
          codes.(q).(r) <- pc.(q).(pid)
        done
      done;
      Array.iteri
        (fun q c ->
          plan.cols.(c).ckeys <-
            Some { code = codes.(q); size = Interner.size dicts.(q) })
        p.qcols
    end;
    Ok plan

(* ------------------------------------------------------------------ *)
(* §III-B value risk *)

(* Count of sorted a[s, e) within [closeness] of x, using the exact
   per-pair predicate |x -. y| <= closeness the naive scan evaluates:
   x -. y is monotone in y, so {y : x -. y >= -c} is a prefix and
   {y : x -. y <= c} a suffix of the sorted slice, and two binary
   searches bound the window without changing any float comparison. *)
let close_count a s e ~x ~closeness =
  let first_not_ge =
    let lo = ref s and hi = ref e in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x -. a.(mid) >= -.closeness then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let first_le =
    let lo = ref s and hi = ref e in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x -. a.(mid) <= closeness then hi := mid else lo := mid + 1
    done;
    !lo
  in
  max 0 (first_not_ge - first_le)

let value_risk_assess t ~fields_read (policy : Value_risk.policy) =
  let read_cols = List.map (Dataset.col_index t.ds) fields_read in
  let sens_col = Dataset.col_index t.ds policy.sensitive in
  let class_code, nclasses = class_codes t ~by:read_cols in
  let scol = t.cols.(sens_col) in
  let ek, suppressed = ekeys t sens_col in
  let counts = Array.make (max 1 ek.size) 0 in
  let stamp = Array.make (max 1 ek.size) (-1) in
  let scores =
    Array.make t.nrows
      { Value_risk.record = 0; risk = Frac.make 0 1; violation = false }
  in
  let members = buckets_of_codes class_code nclasses in
  List.iteri
    (fun cid cls ->
      let size = List.length cls in
      (* Sorted numeric member values; NaNs sort first and are excluded
         from the searchable window (they are close to nothing). *)
      let nums =
        Array.of_list
          (List.filter_map
             (fun r ->
               if Bytes.get scol.is_num r = '\001' then Some scol.nums.(r)
               else None)
             cls)
      in
      Array.sort Float.compare nums;
      let m = Array.length nums in
      let s = ref 0 in
      while !s < m && Float.is_nan nums.(!s) do
        incr s
      done;
      let nan_start = !s in
      List.iter
        (fun r ->
          let e = ek.code.(r) in
          if stamp.(e) <> cid then begin
            stamp.(e) <- cid;
            counts.(e) <- 0
          end;
          counts.(e) <- counts.(e) + 1)
        cls;
      List.iter
        (fun r ->
          let frequency =
            if Bytes.get scol.is_num r = '\001' then begin
              let x = scol.nums.(r) in
              if Float.is_nan x then 0
              else close_count nums nan_start m ~x ~closeness:policy.closeness
            end
            else if ek.code.(r) = suppressed then 0
            else counts.(ek.code.(r))
          in
          let risk = Frac.make frequency size in
          scores.(r) <-
            {
              Value_risk.record = r;
              risk;
              violation = Frac.ge risk policy.confidence;
            })
        cls)
    members;
  let scores = Array.to_list scores in
  {
    Value_risk.fields_read;
    policy;
    scores;
    violations = Listx.count (fun (s : Value_risk.score) -> s.violation) scores;
  }

let value_risk_sweep t policy =
  List.map
    (fun fields_read -> value_risk_assess t ~fields_read policy)
    (Value_risk.read_sets t.ds)
