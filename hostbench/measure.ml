(* Host clocks, allocation counters and order statistics.

   Every timing in the benchmark is host wall time from the monotonic
   clock; every allocation figure is words allocated on the OCaml heap
   (minor + directly-major - promoted, so nothing is counted twice). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peak_heap_mb () =
  float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6

(* [measure f] runs [f] once; returns its value, host seconds and words. *)
let measure f =
  let w0 = allocated_words () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  (v, dt, allocated_words () -. w0)

(* A growable buffer of float samples, so recording an op costs no
   allocation in the timed body. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let a = Float.Array.make (2 * t.n) 0.0 in
      Float.Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1

  let sorted t =
    let a = Array.init t.n (Float.Array.get t.a) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted, non-empty array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail percentile: the highest rung of a fixed ladder that still has
   at least ten samples beyond it.  Returns (percentile, value, samples
   beyond); [None] below eleven samples. *)
let tail_ladder = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail sorted =
  let n = Array.length sorted in
  let beyond p = n - int_of_float (Float.ceil (p /. 100.0 *. float n)) in
  List.find_opt (fun p -> beyond p >= 10) tail_ladder
  |> Option.map (fun p -> (p, percentile sorted p, beyond p))

(* Log-log slope of a cost between two input sizes: 1.0 is linear. *)
let slope ~n0 ~c0 ~n1 ~c1 = log (c1 /. c0) /. log (float n1 /. float n0)

(* [per_call run] calls [run k] (which makes [k] calls of the probed
   function) with doubling [k] until at least [min_s] host seconds have
   passed, so the clock reads stay out of the per-call figures; returns
   (ns per call, words per call). *)
let per_call ?(min_s = 0.05) run =
  let calls = ref 0 and batch = ref 1 in
  let w0 = allocated_words () in
  let t0 = now () in
  while now () -. t0 < min_s do
    run !batch;
    calls := !calls + !batch;
    batch := 2 * !batch
  done;
  let dt = now () -. t0 in
  let words = allocated_words () -. w0 in
  (dt *. 1e9 /. float !calls, words /. float !calls)

let repeat f k =
  for _ = 1 to k do
    f ()
  done
