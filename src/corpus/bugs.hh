/**
 * @file
 * Factories for every corpus entry: the 20 sequential-bug failures
 * and 11 concurrency-bug failures of Table 4, plus the six Table 3
 * interleaving micro-bugs. Each factory builds a fresh program.
 */

#ifndef STM_CORPUS_BUGS_HH
#define STM_CORPUS_BUGS_HH

#include "corpus/bug.hh"

namespace stm::corpus
{

// ---- sequential bugs (Table 4, top) --------------------------------------
BugSpec makeApache1();  //!< config error -> error message
BugSpec makeApache2();  //!< semantic -> error message
BugSpec makeApache3();  //!< semantic -> error message
BugSpec makeCp();       //!< semantic -> error message
BugSpec makeCppcheck1(); //!< memory -> crash (C++)
BugSpec makeCppcheck2(); //!< memory -> crash (C++)
BugSpec makeCppcheck3(); //!< memory -> crash (C++)
BugSpec makeLighttpd(); //!< config -> error message
BugSpec makeLn();       //!< semantic -> error message (long propagation)
BugSpec makeMv();       //!< semantic -> error message
BugSpec makePaste();    //!< memory -> hang
BugSpec makePbzip1();   //!< semantic -> error message (C++)
BugSpec makePbzip2();   //!< memory -> crash (C++)
BugSpec makeRm();       //!< semantic -> error message
BugSpec makeSort();     //!< memory -> crash (Figure 3)
BugSpec makeSquid1();   //!< semantic -> error message
BugSpec makeSquid2();   //!< memory -> crash
BugSpec makeTac();      //!< memory -> crash
BugSpec makeTar1();     //!< semantic -> error message
BugSpec makeTar2();     //!< semantic -> error message

// ---- concurrency bugs (Table 4, bottom) -----------------------------------
BugSpec makeApache4();   //!< A.V. -> crash
BugSpec makeApache5();   //!< A.V. -> corrupted log (silent; missed)
BugSpec makeCherokee();  //!< A.V. -> corrupted log (silent; missed)
BugSpec makeFft();       //!< O.V. read-too-early -> wrong output (Fig 5)
BugSpec makeLu();        //!< O.V. read-too-early -> wrong output
BugSpec makeMozillaJs1(); //!< A.V. -> crash
BugSpec makeMozillaJs2(); //!< A.V. -> wrong output (silent; missed)
BugSpec makeMozillaJs3(); //!< A.V. WWR -> error message (Figure 4)
BugSpec makeMysql1();    //!< A.V. WRW -> crash (FPE not in failure thread)
BugSpec makeMysql2();    //!< A.V. -> wrong output
BugSpec makePbzip3();    //!< O.V. read-too-late -> crash (Figure 6)

// ---- driver/kernel bugs (kernel-mode pack, beyond Table 4) -----------------
BugSpec makeKirqRace();   //!< semantic -> error message (ring-0 root cause)
BugSpec makeKirqNoise();  //!< semantic -> error message (ring-0 LBR noise)
BugSpec makeKirqAtomic(); //!< A.V. irq-vs-mainline -> error message
BugSpec makeKirqStorm();  //!< config -> hang (wedged handler spin)
BugSpec makeKPanic();     //!< config -> crash (panic inside the handler)
BugSpec makeKSysCheck();  //!< semantic -> error message (ioctl off-by-one)
BugSpec makeKSysUar();    //!< A.V. TOCTOU across syscall boundary -> crash
BugSpec makeKSysretLeak(); //!< semantic -> error message (leaked lock)
/** kirq-noise with the handler structurally absent (differential twin). */
BugSpec makeKirqNoiseQuiet();

// ---- Table 3 interleaving micro-bugs ---------------------------------------
BugSpec makeMicroRwr();
BugSpec makeMicroRww();
BugSpec makeMicroWwr();
BugSpec makeMicroWrw();
BugSpec makeMicroReadTooEarly();
BugSpec makeMicroReadTooLate();

} // namespace stm::corpus

#endif // STM_CORPUS_BUGS_HH
