package virtines_test

// frozen is the interpreter oracle: per-run "cycles/retired[/id@cycle...]"
// vectors (cycles alone where the workload API returns only a clock) of
// every differential in differential_test.go, recorded at PR 13's parent
// commit (f8071ce), where Step and the trace engine both produced
// them. A change that moves any of these changes the paper's cycle model;
// re-freeze only on purpose, by pasting the "got" line a failing pin prints.
var frozen = map[string]string{
	"aes":                      "294241 69839 69839",
	"corpus-long64-0":          "226936/8417 55674/8417 55674/8417",
	"corpus-long64-1":          "226965/8442 55703/8442 55703/8442",
	"corpus-long64-2":          "226887/8371 55625/8371 55625/8371",
	"corpus-long64-3":          "226817/8286 55555/8286 55555/8286",
	"corpus-long64-4":          "226895/8356 55633/8356 55633/8356",
	"corpus-long64-5":          "226965/8439 55703/8439 55703/8439",
	"corpus-long64-6":          "226810/8375 55548/8375 55548/8375",
	"corpus-long64-7":          "226976/8404 55714/8404 55714/8404",
	"corpus-prot32-0":          "195886/198 24624/198 24624/198",
	"corpus-prot32-1":          "195915/223 24653/223 24653/223",
	"corpus-prot32-2":          "195837/152 24575/152 24575/152",
	"corpus-prot32-3":          "195764/67 24502/67 24502/67",
	"corpus-prot32-4":          "195848/137 24586/137 24586/137",
	"corpus-prot32-5":          "195917/220 24655/220 24655/220",
	"corpus-prot32-6":          "195769/156 24507/156 24507/156",
	"corpus-prot32-7":          "195926/185 24664/185 24664/185",
	"corpus-real16-0":          "188325/192 17063/192 17063/192",
	"corpus-real16-1":          "188353/217 17091/217 17091/217",
	"corpus-real16-2":          "188276/146 17014/146 17014/146",
	"corpus-real16-3":          "188203/61 16941/61 16941/61",
	"corpus-real16-4":          "188289/131 17027/131 17027/131",
	"corpus-real16-5":          "188357/214 17095/214 17095/214",
	"corpus-real16-6":          "188212/150 16950/150 16950/150",
	"corpus-real16-7":          "188366/179 17104/179 17104/179",
	"echo":                     "263525/23/1@10418/2@39833/3@69247 92263/23/1@10418/2@39833/3@69247 92263/23/1@10418/2@39833/3@69247",
	"fib-snap=false-cow=false": "238541/9634 70030/10516 74484/11944 81689/14254",
	"fib-snap=true-cow=false":  "255203/9634 40860/2290 45314/3718 52519/6028",
	"fib-snap=true-cow=true":   "255203/9634 19414/2290 25863/3718 33068/6028",
	"js-virtine NT":            "1045708 951283 951283",
	"js-virtine":               "1287708 1193283 1193283",
	"js-virtine+snapshot":      "1541954 649077 649077",
	"js-virtine+snapshot+NT":   "1299954 407077 407077",
	"minimal-halt32":           "195519/7 24257/7 24257/7",
	"minimal-halt":             "226528/8226 55266/8226 55266/8226",
}
