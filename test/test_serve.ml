(* Tests for the decode service layer: the LRU cache, workload specs,
   the scalable-decode equivalences the cache keys rely on, and the
   service's determinism and overload policies. *)

let qc = QCheck_alcotest.to_alcotest

(* -- LRU ------------------------------------------------------------- *)

let test_lru_capacity_one () =
  let c = Serve.Lru.create ~capacity:1 () in
  Serve.Lru.add c "a" 1;
  Serve.Lru.add c "b" 2;
  Alcotest.(check (option int)) "a evicted" None (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "b present" (Some 2) (Serve.Lru.find c "b");
  Alcotest.(check int) "length" 1 (Serve.Lru.length c);
  let s = Serve.Lru.stats c in
  Alcotest.(check int) "one eviction" 1 s.Serve.Lru.evictions;
  Alcotest.(check int) "hits" 1 s.Serve.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Serve.Lru.misses

let test_lru_eviction_order () =
  (* A hit must refresh recency: after touching [a], inserting over
     capacity evicts [b], not [a]. *)
  let c = Serve.Lru.create ~capacity:2 () in
  Serve.Lru.add c "a" 1;
  Serve.Lru.add c "b" 2;
  Alcotest.(check (option int)) "touch a" (Some 1) (Serve.Lru.find c "a");
  Serve.Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Serve.Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Serve.Lru.find c "c");
  (* Interleave further: touch c, insert d -> a goes. *)
  ignore (Serve.Lru.find c "c");
  Serve.Lru.add c "d" 4;
  Alcotest.(check (option int)) "a evicted second" None (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "c still present" (Some 3) (Serve.Lru.find c "c")

let test_lru_collision_honesty () =
  (* With every key hashed to the same bucket, distinct keys must
     still resolve to their own values: the cache compares the full
     key on a hash match. *)
  let c = Serve.Lru.create ~hash:(fun _ -> 0) ~capacity:8 () in
  let keys = [ "alpha"; "beta"; "gamma"; "delta" ] in
  List.iteri (fun i k -> Serve.Lru.add c k (i * 10)) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) k (Some (i * 10)) (Serve.Lru.find c k))
    keys;
  Alcotest.(check (option int)) "absent key" None (Serve.Lru.find c "epsilon")

let test_lru_replace_in_place () =
  let c = Serve.Lru.create ~capacity:2 () in
  Serve.Lru.add c "a" 1;
  Serve.Lru.add c "b" 2;
  Serve.Lru.add c "a" 9;
  Alcotest.(check int) "no growth" 2 (Serve.Lru.length c);
  Alcotest.(check (option int)) "updated" (Some 9) (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "b untouched" (Some 2) (Serve.Lru.find c "b");
  Alcotest.(check int) "no eviction" 0 (Serve.Lru.stats c).Serve.Lru.evictions

let test_lru_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Serve.Lru.create: capacity < 1")
    (fun () -> ignore (Serve.Lru.create ~capacity:0 ()))

(* -- cache keys ------------------------------------------------------- *)

let test_cache_digest_discriminates () =
  let a = Serve.Cache.digest "stream one"
  and b = Serve.Cache.digest "stream two" in
  Alcotest.(check bool) "digests differ" true (a <> b);
  Alcotest.(check bool) "digest deterministic" true
    (Serve.Cache.digest "stream one" = a)

(* -- FNV-1a folds ------------------------------------------------------ *)

(* The boxed folds [Serve.Fnv] replaced, kept as its reference: each
   step threads an [Int64] through a closure-captured ref. *)
let ref_int h v = Int64.mul (Int64.logxor h (Int64.of_int v)) 0x100000001b3L

let ref_ints h a =
  let h = ref h in
  Array.iter (fun v -> h := ref_int !h v) a;
  !h

let ref_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := ref_int !h (Char.code c)) s;
  !h

let ref_image h (image : Jpeg2000.Image.t) =
  let h = ref h in
  Array.iter
    (fun (p : Jpeg2000.Image.plane) ->
      let h' = ref_int (ref_int !h p.Jpeg2000.Image.width) p.Jpeg2000.Image.height in
      h := ref_ints h' p.Jpeg2000.Image.data)
    image.Jpeg2000.Image.planes;
  !h

(* Samples span 8-bit, negative and above-16-bit values, plus the
   extremes of [int], so [Int64.of_int]'s sign extension is exercised. *)
let sample_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_range 0 255);
        (3, int_range (-70000) 70000);
        (1, oneofl [ min_int; max_int; -1; 1 lsl 40; -(1 lsl 40) ]);
        (1, int);
      ])

let image_gen =
  QCheck.Gen.(
    triple (int_range 1 3) (int_range 1 9) (int_range 1 9)
    >>= fun (components, width, height) ->
    array_repeat components (array_repeat (width * height) sample_gen)
    >|= fun planes ->
    {
      Jpeg2000.Image.planes =
        Array.map (fun data -> { Jpeg2000.Image.width; height; data }) planes;
      bit_depth = 8;
    })

let prop_fnv_image_matches_boxed =
  QCheck.Test.make ~name:"Fnv.image and Fnv.ints equal the boxed fold"
    ~count:300
    QCheck.(pair int64 (make image_gen))
    (fun (h, image) ->
      Serve.Fnv.image h image = ref_image h image
      && Array.for_all
           (fun (p : Jpeg2000.Image.plane) ->
             Serve.Fnv.ints h p.Jpeg2000.Image.data
             = ref_ints h p.Jpeg2000.Image.data)
           image.Jpeg2000.Image.planes)

let prop_fnv_string_matches_boxed =
  QCheck.Test.make ~name:"Cache.digest (Fnv.string) equals the boxed fold"
    ~count:300 QCheck.string (fun s -> Serve.Cache.digest s = ref_string s)

let test_fnv_short_strings () =
  let hex = Printf.sprintf "%016Lx" in
  Alcotest.(check string) "empty string is the basis" (hex Serve.Fnv.basis)
    (hex (Serve.Cache.digest ""));
  for c = 0 to 255 do
    let s = String.make 1 (Char.chr c) in
    Alcotest.(check string) (Printf.sprintf "byte %d" c) (hex (ref_string s))
      (hex (Serve.Cache.digest s))
  done

let test_cache_digest_pinned () =
  (* Cache keys and the fleet's ring positions derive from these
     values; they must not move. *)
  let hex s = Printf.sprintf "%016Lx" (Serve.Cache.digest s) in
  List.iter
    (fun (s, want) -> Alcotest.(check string) (Printf.sprintf "%S" s) want (hex s))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
      ("stream one", "3b3257938af9984d");
    ];
  List.iteri
    (fun i want ->
      Alcotest.(check string)
        (Printf.sprintf "codestream seed %d" (2008 + i))
        want
        (hex
           (Models.Workload.codestream ~seed:(2008 + i)
              Jpeg2000.Codestream.Lossless)))
    [ "aa33d7d1d0be6fe9"; "f766fe94bfed3cb9"; "d5a306f679f947c6" ]

let test_fnv_allocates_nothing () =
  (* Native code keeps the running hash unboxed; bytecode boxes every
     [Int64], so there is nothing to check there. *)
  if Sys.backend_type = Sys.Native then begin
    let image =
      Jpeg2000.Image.noise ~width:64 ~height:64 ~components:3 ~seed:1
    in
    let s = String.make 4096 'x' in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Serve.Fnv.image Serve.Fnv.basis image));
    ignore (Sys.opaque_identity (Serve.Cache.digest s));
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f minor words for 16 384 samples + 4096 bytes" words)
      true (words < 64.0)
  end

(* -- workload specs --------------------------------------------------- *)

let test_spec_parse_defaults () =
  match Serve.Request.parse_spec "open:" with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok spec ->
    Alcotest.(check int) "n" 64 spec.Serve.Request.n;
    Alcotest.(check int) "seed" 11 spec.Serve.Request.seed;
    Alcotest.(check (float 1e-9)) "deadline" 25.0 spec.Serve.Request.deadline_ms;
    Alcotest.(check string) "canonical"
      "open:n=64,rate=400,seed=11,deadline=25,region=0.25,reduced=0.25"
      (Serve.Request.spec_to_string spec)

let test_spec_parse_roundtrip () =
  let s = "closed:n=32,clients=2,think=1.5,seed=9,deadline=10,region=0.5,reduced=0.1" in
  match Serve.Request.parse_spec s with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok spec ->
    Alcotest.(check string) "roundtrip" s (Serve.Request.spec_to_string spec)

let test_spec_parse_errors () =
  let rejected s =
    match Serve.Request.parse_spec s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown shape" true (rejected "poisson:n=4");
  Alcotest.(check bool) "unknown key" true (rejected "open:n=4,bogus=1");
  Alcotest.(check bool) "bad int" true (rejected "open:n=four");
  Alcotest.(check bool) "shape key mismatch" true (rejected "open:clients=2");
  Alcotest.(check bool) "n < 1" true (rejected "open:n=0");
  Alcotest.(check bool) "rate <= 0" true (rejected "open:rate=0");
  Alcotest.(check bool) "shares sum > 1" true
    (rejected "open:region=0.8,reduced=0.8");
  Alcotest.(check bool) "negative share" true (rejected "open:region=-0.1");
  Alcotest.(check bool) "bad deadline" true (rejected "open:deadline=0")

(* -- scalable-decode equivalences (the cache-key semantics) ---------- *)

let encode_smooth ~width ~height ~seed =
  let img = Jpeg2000.Image.smooth ~width ~height ~components:3 ~seed in
  let config =
    { Jpeg2000.Encoder.default_lossless with tile_w = 32; tile_h = 32; levels = 3 }
  in
  (Jpeg2000.Encoder.encode config img, img)

let crop image ~x ~y ~w ~h =
  let cropped =
    Jpeg2000.Image.create ~width:w ~height:h
      ~components:(Jpeg2000.Image.components image)
      ~bit_depth:image.Jpeg2000.Image.bit_depth ()
  in
  Array.iteri
    (fun c (src : Jpeg2000.Image.plane) ->
      let dst = cropped.Jpeg2000.Image.planes.(c) in
      for dy = 0 to h - 1 do
        for dx = 0 to w - 1 do
          Jpeg2000.Image.plane_set dst ~x:dx ~y:dy
            (Jpeg2000.Image.plane_get src ~x:(x + dx) ~y:(y + dy))
        done
      done)
    image.Jpeg2000.Image.planes;
  cropped

let prop_region_equals_crop =
  QCheck.Test.make ~name:"decode_region equals crop of full decode" ~count:25
    QCheck.(
      quad (int_range 33 96) (int_range 33 96) (int_range 0 1000) small_int)
    (fun (width, height, pos_seed, img_seed) ->
      let data, _ = encode_smooth ~width ~height ~seed:img_seed in
      let full = Jpeg2000.Decoder.decode data in
      let rng = Faults.Rng.create pos_seed in
      let w = 1 + Faults.Rng.int rng width in
      let h = 1 + Faults.Rng.int rng height in
      let x = Faults.Rng.int rng (width - w + 1) in
      let y = Faults.Rng.int rng (height - h + 1) in
      Jpeg2000.Image.equal
        (Jpeg2000.Decoder.decode_region ~x ~y ~w ~h data)
        (crop full ~x ~y ~w ~h))

let prop_staged_matches_reduced =
  (* The staged pipeline (the serving layer's unit of work) must be
     bit-identical to [decode_reduced] at every resolution level the
     degrade path can pick — this is what makes cache keys
     (digest, tile, discard) sound. *)
  QCheck.Test.make ~name:"staged decode equals decode_reduced" ~count:15
    QCheck.(pair (int_range 0 2) small_int)
    (fun (discard, img_seed) ->
      let data, _ = encode_smooth ~width:96 ~height:64 ~seed:img_seed in
      let stream = Jpeg2000.Codestream.parse data in
      let header = stream.Jpeg2000.Codestream.header in
      let tiles =
        List.map
          (fun seg ->
            let st = Jpeg2000.Decoder.stage_tile ~discard header seg in
            let ok =
              Array.init (Jpeg2000.Decoder.staged_jobs st)
                (Jpeg2000.Decoder.staged_run st)
            in
            let tile, concealed = Jpeg2000.Decoder.finish_staged_ok st ok in
            assert (concealed = 0);
            tile)
          stream.Jpeg2000.Codestream.tiles
      in
      let assembled =
        Jpeg2000.Tile.assemble
          ~width:(Jpeg2000.Decoder.reduced_size header.Jpeg2000.Codestream.width discard)
          ~height:(Jpeg2000.Decoder.reduced_size header.Jpeg2000.Codestream.height discard)
          ~components:header.Jpeg2000.Codestream.components
          ~bit_depth:header.Jpeg2000.Codestream.bit_depth tiles
      in
      Jpeg2000.Image.equal assembled
        (Jpeg2000.Decoder.decode_reduced ~discard_levels:discard data))

(* -- region assembly ---------------------------------------------------- *)

(* Streams whose sizes are not multiples of the 32-px tile, so windows
   meet partial edge tiles, with every tile decoded once. *)
let region_streams =
  lazy
    (let service =
       Serve.Service.create
         [|
           Models.Workload.codestream ~width:72 ~height:56 ~seed:2008
             Jpeg2000.Codestream.Lossless;
           Models.Workload.codestream ~width:45 ~height:70 ~seed:2009
             Jpeg2000.Codestream.Lossy;
         |]
     in
     Array.map
       (fun stream ->
         let header = Serve.Service.stream_header stream in
         let tiles =
           Array.init (Serve.Service.stream_tile_count stream) (fun i ->
               Jpeg2000.Decoder.decode_tile header
                 (Serve.Service.stream_tile stream i))
         in
         (stream, tiles))
       (Serve.Service.streams service))

let prop_assemble_region_equals_crop =
  QCheck.Test.make
    ~name:"assemble Region equals a crop of assemble Full (needed_keys order)"
    ~count:300
    QCheck.(pair bool (quad small_nat small_nat small_nat small_nat))
    (fun (second, (a, b, c, d)) ->
      let stream, tiles =
        (Lazy.force region_streams).(if second then 1 else 0)
      in
      let header = Serve.Service.stream_header stream in
      let width = header.Jpeg2000.Codestream.width
      and height = header.Jpeg2000.Codestream.height in
      let rx = a mod width and ry = b mod height in
      let rw = 1 + (c mod (width - rx)) and rh = 1 + (d mod (height - ry)) in
      let target = Serve.Request.Region { rx; ry; rw; rh } in
      let needed =
        List.map
          (fun (i, _) -> tiles.(i))
          (Serve.Service.needed_keys stream target)
      in
      let full =
        Serve.Service.assemble stream Serve.Request.Full (Array.to_list tiles)
      in
      Jpeg2000.Image.equal
        (Serve.Service.assemble stream target needed)
        (crop full ~x:rx ~y:ry ~w:rw ~h:rh))

(* -- service ---------------------------------------------------------- *)

let corpus () =
  Array.init 2 (fun i ->
      Models.Workload.codestream ~width:64 ~height:64 ~seed:(2008 + i)
        Jpeg2000.Codestream.Lossless)

let spec_exn s =
  match Serve.Request.parse_spec s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad spec %S: %s" s e

let report_string r =
  Telemetry.Json.to_string (Serve.Service.report_to_json r)

let test_service_same_seed_identical () =
  let service = Serve.Service.create (corpus ()) in
  let spec = spec_exn "open:n=24,rate=800,seed=5" in
  let a = Serve.Service.run service spec in
  let service2 = Serve.Service.create (corpus ()) in
  let b = Serve.Service.run service2 spec in
  Alcotest.(check string) "same seed, same report" (report_string a)
    (report_string b);
  let c = Serve.Service.run service2 (spec_exn "open:n=24,rate=800,seed=6") in
  Alcotest.(check bool) "different seed, different digest" true
    (a.Serve.Service.pixels_digest <> c.Serve.Service.pixels_digest)

let test_service_jobs_invariant () =
  (* The report and every served image must be independent of the
     worker count. *)
  let spec = spec_exn "closed:n=20,clients=3,think=0.5,seed=13" in
  let run_with jobs =
    let images = ref [] in
    let service = Serve.Service.create (corpus ()) in
    let report =
      Par.Pool.with_jobs jobs (fun pool ->
          Serve.Service.run ~pool
            ~on_complete:(fun r img -> images := (r.Serve.Request.id, img) :: !images)
            service spec)
    in
    (report_string report, List.rev !images)
  in
  let ra, ia = run_with 1 in
  let rb, ib = run_with 2 in
  let rc, ic = run_with 4 in
  Alcotest.(check string) "jobs=2 report" ra rb;
  Alcotest.(check string) "jobs=4 report" ra rc;
  let same (id1, img1) (id2, img2) = id1 = id2 && Jpeg2000.Image.equal img1 img2 in
  Alcotest.(check bool) "jobs=2 images" true (List.for_all2 same ia ib);
  Alcotest.(check bool) "jobs=4 images" true (List.for_all2 same ia ic)

let test_service_matches_reference_decoder () =
  (* Every served image must equal what the reference decoder
     produces for the request's (possibly degraded) target. *)
  let streams = corpus () in
  let service = Serve.Service.create streams in
  let checked = ref 0 in
  let report =
    Serve.Service.run
      ~on_complete:(fun r img ->
        let data = streams.(r.Serve.Request.stream) in
        let reference =
          match r.Serve.Request.target with
          | Serve.Request.Full -> Jpeg2000.Decoder.decode data
          | Serve.Request.Region { rx; ry; rw; rh } ->
            Jpeg2000.Decoder.decode_region ~x:rx ~y:ry ~w:rw ~h:rh data
          | Serve.Request.Reduced { discard } ->
            Jpeg2000.Decoder.decode_reduced ~discard_levels:discard data
        in
        incr checked;
        if not (Jpeg2000.Image.equal img reference) then
          Alcotest.failf "request %d (%s) diverges from the reference decoder"
            r.Serve.Request.id
            (Format.asprintf "%a" Serve.Request.pp_target r.Serve.Request.target))
      service
      (spec_exn "open:n=30,rate=600,seed=21")
  in
  Alcotest.(check int) "all served requests checked" report.Serve.Service.served
    !checked;
  Alcotest.(check bool) "exercised the cache" true
    (report.Serve.Service.cache_hits > 0)

let test_service_counters_balance () =
  let service = Serve.Service.create (corpus ()) in
  let r = Serve.Service.run service (spec_exn "open:n=40,rate=1500,seed=3") in
  Alcotest.(check int) "total = served + rejected + dropped"
    r.Serve.Service.total
    (r.Serve.Service.served + r.Serve.Service.rejected + r.Serve.Service.dropped)

let overload_config policy =
  {
    Serve.Service.default_config with
    Serve.Service.queue_capacity = 4;
    overload = policy;
    cache_capacity = 8;
  }

let stress_spec = "open:n=80,rate=4000,seed=17"

let test_policy_reject () =
  let service =
    Serve.Service.create ~config:(overload_config Serve.Service.Reject) (corpus ())
  in
  let r = Serve.Service.run service (spec_exn stress_spec) in
  Alcotest.(check bool) "rejects under overload" true (r.Serve.Service.rejected > 0);
  Alcotest.(check int) "never drops" 0 r.Serve.Service.dropped;
  Alcotest.(check bool) "refusals count as SLO misses" true
    (r.Serve.Service.slo_misses >= r.Serve.Service.rejected)

let test_policy_drop_oldest () =
  let service =
    Serve.Service.create
      ~config:(overload_config Serve.Service.Drop_oldest)
      (corpus ())
  in
  let r = Serve.Service.run service (spec_exn stress_spec) in
  Alcotest.(check bool) "drops under overload" true (r.Serve.Service.dropped > 0);
  Alcotest.(check int) "never rejects" 0 r.Serve.Service.rejected

let test_policy_degrade () =
  let service =
    Serve.Service.create ~config:(overload_config Serve.Service.Degrade) (corpus ())
  in
  let r = Serve.Service.run service (spec_exn stress_spec) in
  Alcotest.(check bool) "degrades under overload" true
    (r.Serve.Service.degraded > 0)

(* -- ingest ------------------------------------------------------------ *)

let ingest_config s =
  match Faults.Ingest.parse_spec s with
  | Ok spec ->
    { Serve.Service.default_config with Serve.Service.ingest = Some spec }
  | Error e -> Alcotest.failf "bad ingest spec: %s" e

let test_ingest_jobs_invariant () =
  (* Faulted ingest reports must stay byte-identical across worker
     counts, like everything else the service prints. *)
  let spec = spec_exn "open:n=24,rate=600,seed=11,deadline=6" in
  let config =
    ingest_config
      "chunk=256,gap_us=300,loss=0.05,dup=0.05,reorder=0.1,stall=0.2,stall_us=2000"
  in
  let run_with jobs =
    let service = Serve.Service.create ~config (corpus ()) in
    report_string
      (Par.Pool.with_jobs jobs (fun pool ->
           Serve.Service.run ~pool service spec))
  in
  let a = run_with 1 in
  Alcotest.(check string) "jobs=2 byte-equal" a (run_with 2);
  Alcotest.(check string) "jobs=4 byte-equal" a (run_with 4);
  let service = Serve.Service.create ~config (corpus ()) in
  let r = Serve.Service.run service spec in
  Alcotest.(check string) "rerun byte-equal" a (report_string r);
  match r.Serve.Service.ingest with
  | None -> Alcotest.fail "report lacks ingest stats"
  | Some i ->
    Alcotest.(check bool) "chunks lost" true
      (i.Serve.Service.ing_chunks_lost > 0);
    Alcotest.(check bool) "flushes happened" true
      (i.Serve.Service.ing_flushed > 0);
    Alcotest.(check bool) "tiles concealed" true
      (i.Serve.Service.ing_flush_concealed_tiles > 0);
    Alcotest.(check bool) "psnr impact finite" true
      (Float.is_finite i.Serve.Service.ing_flush_psnr_db)

let test_ingest_flush_equals_robust_prefix () =
  (* A deadline flush must serve exactly decode_robust of the
     contiguous prefix the stream had delivered. *)
  let config = ingest_config "chunk=256,loss=0.1,stall=0.3,stall_us=3000" in
  let service = Serve.Service.create ~config (corpus ()) in
  let flushes = ref 0 in
  let report =
    Serve.Service.run
      ~on_flush:(fun _r ~prefix img ->
        incr flushes;
        match Jpeg2000.Decoder.decode_robust prefix with
        | Ok (want, _) ->
          if not (Jpeg2000.Image.equal img want) then
            Alcotest.fail "flush image diverges from decode_robust of prefix"
        | Error _ -> Alcotest.fail "flushed prefix did not robust-decode")
      service
      (spec_exn "open:n=20,rate=500,seed=9,deadline=5")
  in
  Alcotest.(check bool) "some requests flushed" true (!flushes > 0);
  (match report.Serve.Service.ingest with
  | Some i ->
    Alcotest.(check int) "flush count matches" !flushes
      i.Serve.Service.ing_flushed
  | None -> Alcotest.fail "report lacks ingest stats");
  Alcotest.(check int) "counters still balance" report.Serve.Service.total
    (report.Serve.Service.served + report.Serve.Service.rejected
   + report.Serve.Service.dropped)

let test_ingest_clean_streaming_serves_all () =
  (* Fault-free streaming under a roomy deadline: delivery only adds
     latency; every request is served by the normal path. *)
  let config = ingest_config "" in
  let service = Serve.Service.create ~config (corpus ()) in
  let r =
    Serve.Service.run service (spec_exn "open:n=16,rate=300,seed=4,deadline=60")
  in
  Alcotest.(check int) "all served" r.Serve.Service.total r.Serve.Service.served;
  match r.Serve.Service.ingest with
  | Some i ->
    Alcotest.(check int) "no flushes" 0 i.Serve.Service.ing_flushed;
    Alcotest.(check int) "no loss" 0 i.Serve.Service.ing_chunks_lost;
    Alcotest.(check bool) "bytes accounted" true
      (i.Serve.Service.ing_bytes > 0)
  | None -> Alcotest.fail "report lacks ingest stats"

(* The machine-replay oracle for [Serve.Ingest.analyse]: every
   contiguous extension of the prefix is fed to one [Jpeg2000.Stream]
   and each tile is stamped with the arrival that made the machine
   report it parsed. A machine that turns corrupt in the feed that
   completed its preamble never reports a tile count, so
   [tile_landed] grows to cover the tiles it did parse. *)
type oracle = {
  o_dlv : Faults.Ingest.delivery;
  o_tile_landed : int array;
  o_complete : int;
  o_steps : (int * int) array;
  o_received : int;
}

let oracle_analyse ~seed spec ~start_ps data =
  let dlv = Faults.Ingest.schedule ~seed spec ~start_ps data in
  let len = String.length data in
  let chunk = spec.Faults.Ingest.chunk_bytes in
  let nchunks = (len + chunk - 1) / chunk in
  let got = Array.make (Stdlib.max 1 nchunks) false in
  let frontier = ref 0 in
  let stream = Jpeg2000.Stream.create () in
  let ntiles = ref (-1) in
  let tile_landed = ref [||] in
  let ready = ref 0 in
  let complete = ref max_int in
  let steps = ref [ (min_int, 0) ] in
  let received = ref 0 in
  List.iter
    (fun (c : Faults.Ingest.chunk) ->
      let i = c.Faults.Ingest.c_offset / chunk in
      if not got.(i) then begin
        got.(i) <- true;
        received := !received + String.length c.Faults.Ingest.c_bytes;
        let from = !frontier in
        while !frontier < nchunks && got.(!frontier) do incr frontier done;
        if !frontier > from then begin
          let lo = from * chunk in
          let hi = Stdlib.min len (!frontier * chunk) in
          ignore (Jpeg2000.Stream.feed stream (String.sub data lo (hi - lo)));
          steps := (c.Faults.Ingest.c_arrival_ps, hi) :: !steps;
          (match Jpeg2000.Stream.tile_count stream with
          | Some n when !ntiles < 0 ->
            ntiles := n;
            tile_landed := Array.make (Stdlib.max 1 n) max_int
          | _ -> ());
          let now_ready = Jpeg2000.Stream.tiles_ready stream in
          let have = Array.length !tile_landed in
          if now_ready > have then
            tile_landed :=
              Array.append !tile_landed (Array.make (now_ready - have) max_int);
          for ti = !ready to now_ready - 1 do
            !tile_landed.(ti) <- c.Faults.Ingest.c_arrival_ps
          done;
          ready := now_ready;
          if hi = len && !complete = max_int then
            complete := c.Faults.Ingest.c_arrival_ps
        end
      end)
    dlv.Faults.Ingest.chunks;
  {
    o_dlv = dlv;
    o_tile_landed = !tile_landed;
    o_complete = !complete;
    o_steps = Array.of_list (List.rev !steps);
    o_received = !received;
  }

let oracle_tile_landed_ps o i =
  if i < 0 || i >= Array.length o.o_tile_landed then max_int
  else o.o_tile_landed.(i)

let oracle_prefix_at o data instant =
  let best = ref 0 in
  Array.iter
    (fun (ts, n) -> if ts <= instant && n > !best then best := n)
    o.o_steps;
  String.sub data 0 !best

let ingest_oracle_bases =
  lazy
    (Array.append (corpus ())
       [|
         Models.Workload.codestream ~width:64 ~height:64 ~seed:2010
           Jpeg2000.Codestream.Lossy;
       |])

let ingest_oracle_specs =
  Array.map
    (fun s ->
      match Faults.Ingest.parse_spec s with
      | Ok spec -> spec
      | Error e -> failwith e)
    [|
      "chunk=1024,loss=0.001,stall=0.01,stall_us=3000";
      "chunk=97,loss=0.2,dup=0.2,reorder=0.3,window=5,stall=0.3";
      "chunk=61,dup=0.1,reorder=0.5,window=8";
    |]

let prop_ingest_matches_replay_oracle =
  QCheck.Test.make ~name:"Ingest.analyse equals the Stream-replay oracle"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* base = int_range 0 2 in
         let* variant = int_range 0 4 in
         let* a = int_range 0 99_999 in
         let* b = char in
         let* junk = string_size ~gen:char (int_range 1 40) in
         let* spec = int_range 0 2 in
         let* seed = int_range 0 1_000_000 in
         let+ start_ps = int_range 0 1_000_000_000 in
         (base, variant, a, b, junk, spec, seed, start_ps)))
    (fun (base, variant, a, b, junk, spec, seed, start_ps) ->
      let clean = (Lazy.force ingest_oracle_bases).(base) in
      let n = String.length clean in
      let data =
        match variant with
        | 0 -> clean
        | 1 -> String.sub clean 0 (a mod (n + 1)) (* truncated *)
        | 2 ->
          (* one byte flipped *)
          let x = Bytes.of_string clean in
          Bytes.set x (a mod n) b;
          Bytes.to_string x
        | 3 -> clean ^ junk (* trailing garbage *)
        | _ -> String.sub clean 0 (a mod 4) (* shorter than the magic *)
      in
      let spec = ingest_oracle_specs.(spec) in
      let o = oracle_analyse ~seed spec ~start_ps data in
      let d = Serve.Ingest.analyse ~seed spec ~start_ps data in
      let ntiles =
        (Jpeg2000.Stream.layout data).Jpeg2000.Stream.tile_count
      in
      let tiles_agree =
        List.for_all
          (fun i -> Serve.Ingest.tile_landed_ps d i = oracle_tile_landed_ps o i)
          (List.init (ntiles + 2) (fun i -> i - 1))
      in
      let prefixes_agree =
        List.for_all
          (fun (c : Faults.Ingest.chunk) ->
            List.for_all
              (fun t ->
                Serve.Ingest.prefix_at d t = oracle_prefix_at o data t)
              [ c.Faults.Ingest.c_arrival_ps - 1; c.Faults.Ingest.c_arrival_ps ])
          o.o_dlv.Faults.Ingest.chunks
      in
      tiles_agree && prefixes_agree
      && Serve.Ingest.complete_ps d = o.o_complete
      && Serve.Ingest.bytes_received d = o.o_received
      && Serve.Ingest.delivery d = o.o_dlv)

(* -- golden reports ------------------------------------------------------ *)

(* The README quickstarts, built as [osss_sim serve] builds them: the
   default 128-px lossless corpus, seeds 2008, 2009, ... *)
let cli_corpus n =
  Array.init n (fun i ->
      Models.Workload.codestream ~seed:(2008 + i) Jpeg2000.Codestream.Lossless)

let test_golden_pixels_digests () =
  let digest config spec =
    let service = Serve.Service.create ~config (cli_corpus 3) in
    (Serve.Service.run service (spec_exn spec)).Serve.Service.pixels_digest
  in
  Alcotest.(check string) "serve quickstart" "6a4bf2d66eff1a61"
    (digest
       {
         Serve.Service.default_config with
         Serve.Service.queue_capacity = 8;
         overload = Serve.Service.Drop_oldest;
       }
       "open:n=200,rate=2000,seed=3");
  Alcotest.(check string) "serve + ingest quickstart" "892e9cfcab81063b"
    (digest
       (ingest_config "chunk=256,loss=0.05,stall=0.2,stall_us=2000")
       "open:n=48,rate=800,seed=7,deadline=8")

(* -- profiling ------------------------------------------------------- *)

let test_profile_jobs_and_rerun_identical () =
  (* The cost tree is built from virtual-time spans emitted on the
     coordinating domain, so the collapsed flamegraph text must be
     byte-identical across worker counts and across reruns. *)
  let spec = spec_exn "open:n=24,rate=600,seed=11" in
  let run_with jobs =
    let service = Serve.Service.create (corpus ()) in
    let sink, _report =
      Telemetry.Sink.with_sink (fun () ->
          Par.Pool.with_jobs jobs (fun pool ->
              Serve.Service.run ~pool service spec))
    in
    Telemetry.Profile.collapsed
      (Telemetry.Profile.of_events (Telemetry.Sink.events sink))
  in
  let a = run_with 1 in
  Alcotest.(check bool) "tree is non-trivial" true (String.length a > 1);
  Alcotest.(check string) "jobs=2 byte-identical" a (run_with 2);
  Alcotest.(check string) "jobs=4 byte-identical" a (run_with 4);
  Alcotest.(check string) "rerun byte-identical" a (run_with 1)

let test_profile_stage_spans_tile_requests () =
  (* Stage child spans (cache/entropy/reconstruct/assemble) must tile
     each request span exactly: the tree invariant holds and the
     request nodes carry no unattributed self time. *)
  let service = Serve.Service.create (corpus ()) in
  let sink, _ =
    Telemetry.Sink.with_sink (fun () ->
        Serve.Service.run service (spec_exn "open:n=30,rate=600,seed=21"))
  in
  let p = Telemetry.Profile.of_events (Telemetry.Sink.events sink) in
  Alcotest.(check bool) "invariant" true (Telemetry.Profile.invariant p);
  match Telemetry.Profile.find p "serve.exec;request" with
  | None -> Alcotest.fail "no request node under serve.exec"
  | Some n ->
    Alcotest.(check bool) "requests profiled" true
      (n.Telemetry.Profile.count > 0);
    Alcotest.(check int) "stages tile the request span exactly" 0
      n.Telemetry.Profile.self_ps;
    Alcotest.(check bool) "stage children present" true
      (List.exists
         (fun c -> c.Telemetry.Profile.name = "entropy")
         n.Telemetry.Profile.children)

let test_profile_p99_exemplar_resolves () =
  (* The latency histogram's tail exemplar must name a request whose
     trace id recomputes from (seed, id) — the link from a p99 line
     back to that request's spans. *)
  let spec = spec_exn "open:n=30,rate=600,seed=21" in
  let service = Serve.Service.create (corpus ()) in
  let sink, _ =
    Telemetry.Sink.with_sink (fun () -> Serve.Service.run service spec)
  in
  let report = Telemetry.Sink.report sink in
  match Telemetry.Report.dist report "serve.latency_us" with
  | None -> Alcotest.fail "no serve.latency_us histogram"
  | Some d -> (
    match Telemetry.Report.quantile_exemplar d 0.99 with
    | None -> Alcotest.fail "p99 exemplar missing"
    | Some e ->
      let id = e.Telemetry.Metrics.ex_id in
      let expected =
        Serve.Request.trace_to_string
          (Serve.Request.trace_id ~seed:spec.Serve.Request.seed id)
      in
      Alcotest.(check string) "exemplar trace matches trace_id(seed, id)"
        expected e.Telemetry.Metrics.ex_trace;
      (* And that trace id is attached to the request's exec span. *)
      let tagged =
        List.exists
          (fun ev ->
            List.exists
              (fun (k, v) ->
                k = "trace"
                && v = Telemetry.Event.Str e.Telemetry.Metrics.ex_trace)
              ev.Telemetry.Event.args)
          (Telemetry.Sink.events sink)
      in
      Alcotest.(check bool) "trace id appears in span args" true tagged)

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      match Serve.Service.overload_of_string (Serve.Service.overload_to_string p) with
      | Ok p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | Error e -> Alcotest.fail e)
    [ Serve.Service.Reject; Serve.Service.Drop_oldest; Serve.Service.Degrade ];
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (Serve.Service.overload_of_string "lifo"))

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "collision honesty" `Quick test_lru_collision_honesty;
          Alcotest.test_case "replace in place" `Quick test_lru_replace_in_place;
          Alcotest.test_case "bad capacity" `Quick test_lru_rejects_bad_capacity;
          Alcotest.test_case "digest" `Quick test_cache_digest_discriminates;
        ] );
      ( "fnv",
        [
          qc prop_fnv_image_matches_boxed;
          qc prop_fnv_string_matches_boxed;
          Alcotest.test_case "empty and 1-byte strings" `Quick
            test_fnv_short_strings;
          Alcotest.test_case "cache digests pinned" `Quick
            test_cache_digest_pinned;
          Alcotest.test_case "allocates nothing" `Quick
            test_fnv_allocates_nothing;
        ] );
      ( "workload specs",
        [
          Alcotest.test_case "defaults" `Quick test_spec_parse_defaults;
          Alcotest.test_case "roundtrip" `Quick test_spec_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_parse_errors;
        ] );
      ( "scalable decode",
        [ qc prop_region_equals_crop; qc prop_staged_matches_reduced ] );
      ( "service",
        [
          Alcotest.test_case "same seed identical" `Quick
            test_service_same_seed_identical;
          Alcotest.test_case "jobs invariant" `Quick test_service_jobs_invariant;
          Alcotest.test_case "matches reference decoder" `Quick
            test_service_matches_reference_decoder;
          Alcotest.test_case "counters balance" `Quick test_service_counters_balance;
          qc prop_assemble_region_equals_crop;
          Alcotest.test_case "golden pixels digests" `Quick
            test_golden_pixels_digests;
        ] );
      ( "overload policies",
        [
          Alcotest.test_case "reject" `Quick test_policy_reject;
          Alcotest.test_case "drop-oldest" `Quick test_policy_drop_oldest;
          Alcotest.test_case "degrade" `Quick test_policy_degrade;
          Alcotest.test_case "names" `Quick test_policy_names_roundtrip;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "collapsed tree jobs/rerun invariant" `Quick
            test_profile_jobs_and_rerun_identical;
          Alcotest.test_case "stage spans tile requests" `Quick
            test_profile_stage_spans_tile_requests;
          Alcotest.test_case "p99 exemplar resolves to a trace" `Quick
            test_profile_p99_exemplar_resolves;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "jobs/rerun invariant" `Quick
            test_ingest_jobs_invariant;
          Alcotest.test_case "flush equals robust prefix" `Quick
            test_ingest_flush_equals_robust_prefix;
          Alcotest.test_case "clean streaming serves all" `Quick
            test_ingest_clean_streaming_serves_all;
          qc prop_ingest_matches_replay_oracle;
        ] );
    ]
