type failure_report = {
  iteration : int;
  fuzz_seed : int;
  spec : Gen.spec;
  failure : Oracle.failure;
  shrunk : Shrink.result option;
  corpus_path : string option;
}

type outcome = {
  executed : int;
  failure : failure_report option;
}

let run ?(log = fun _ -> ()) ?(fault = Oracle.No_fault) ?(shrink = false)
    ?corpus_dir ?max_cores ?pack_bias ?(presolve = true)
    ?(cuts = true) ~seed ~budget () =
  if budget < 0 then invalid_arg "Fuzz.run: budget < 0";
  let check = Oracle.check ~fault ~presolve ~cuts in
  let rec loop i =
    if i >= budget then begin
      log (Printf.sprintf "fuzz: %d instances clean (seed %d)" budget seed);
      { executed = budget; failure = None }
    end
    else begin
      if i > 0 && i mod 50 = 0 then
        log (Printf.sprintf "fuzz: %d/%d clean" i budget);
      let fuzz_seed = seed + i in
      let spec =
        Gen.spec_of_seed ?max_cores ?pack_bias ~seed:fuzz_seed ()
      in
      let instance = Gen.instance_of_spec spec in
      match check instance with
      | Ok () -> loop (i + 1)
      | Error failure ->
          log
            (Printf.sprintf
               "FAILURE at instance %d (fuzz seed %d): property %s\n\
               \  spec %s\n\
               \  %s"
               i fuzz_seed failure.Oracle.property (Gen.spec_print spec)
               failure.Oracle.detail);
          let shrunk =
            if not shrink then None
            else begin
              let r =
                Shrink.shrink ~check ~property:failure.Oracle.property
                  instance
              in
              log
                (Printf.sprintf
                   "  shrunk to %s in %d steps (%d oracle calls)"
                   (Gen.instance_print r.Shrink.instance) r.Shrink.steps
                   r.Shrink.oracle_calls);
              Some r
            end
          in
          let minimal =
            match shrunk with
            | Some r -> r.Shrink.instance
            | None -> instance
          in
          let corpus_path =
            match corpus_dir with
            | None -> None
            | Some dir ->
                let note =
                  Printf.sprintf
                    "found by tamopt fuzz --seed %d (iteration %d, \
                     instance seed %d)%s\ndetail: %s"
                    seed i fuzz_seed
                    (match fault with
                    | Oracle.No_fault -> ""
                    | f ->
                        Printf.sprintf " with injected fault %s"
                          (Oracle.fault_name f))
                    failure.Oracle.detail
                in
                let path =
                  Corpus.save ~dir
                    { Corpus.property = failure.Oracle.property;
                      instance = minimal;
                      note = Some note }
                in
                log (Printf.sprintf "  repro written: %s" path);
                Some path
          in
          { executed = i + 1;
            failure =
              Some { iteration = i; fuzz_seed; spec; failure; shrunk;
                     corpus_path } }
    end
  in
  loop 0

let replay (entry : Corpus.entry) = Oracle.check entry.Corpus.instance
