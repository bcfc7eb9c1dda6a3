(* MILP pool candidates ([Workload.ilp_candidate]) on which the MILP,
   run as the daemon runs it, did not return the [Exact.solve] optimum
   with a verified architecture: it claimed infeasibility, returned a
   worse value as optimal, or gave up with [optimal = false]. The pool
   draws skip them so that every workload can finish without a failed
   request. Regenerate with

     bench.exe --screen-ilp 0:21000

   (86 of 21000 candidates.) *)
let ilp =
  [| 89; 129; 285; 417; 622; 648; 799; 917; 1102; 1192; 2068; 2204; 2341;
     2605; 2808; 3114; 3285; 3419; 3432; 4289; 4767; 4889; 4948; 4975;
     5131; 5519; 6431; 6652; 6683; 6831; 7008; 7139; 7241; 7343; 8319;
     8841; 8865; 9052; 9589; 9955; 9977; 9978; 10224; 10401; 10907; 11276;
     11295; 12222; 12377; 12465; 12655; 12799; 13155; 13612; 13787; 13967;
     14128; 14395; 14728; 14745; 14939; 15408; 15560; 15626; 15824; 15837;
     16018; 16253; 16499; 16524; 16637; 16672; 16677; 16972; 17004; 17530;
     18129; 18235; 18744; 19552; 19727; 19945; 19970; 20753; 20754; 20867 |]
