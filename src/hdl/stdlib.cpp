#include "hdl/stdlib.hpp"

namespace usys::hdl::stdlib {

std::string paper_listing1() {
  return R"(
-- Listing 1 of Romanowicz et al., ED&TC 1997 (transverse electrostatic
-- transducer of Fig. 2a). The mechanical contribution is written as the
-- absorbed flow +e0*er*A*V*V/(2(d+x)^2) = dW/dx, whose delivered force is
-- the paper's Table 3 value -e0*er*A*V^2/(2(d+x)^2).
ENTITY eletran IS
  GENERIC (A, d, er : analog);
  PIN (a, b : electrical; c, d : mechanical1);
END ENTITY eletran;

ARCHITECTURE a OF eletran IS
  VARIABLE e0, x : analog;
  STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, d].tv;
      x := integ(S);
      [a, b].i %= e0*er*A/(d + x)*ddt(V);
      [c, d].f %= e0*er*A*V*V/(2.0*(d + x)*(d + x));
  END RELATION;
END ARCHITECTURE a;
)";
}

std::string transverse_energy() {
  return R"(
-- Energy-complete transverse electrostatic transducer: the electrical
-- branch carries the full i = d(C(x) V)/dt = C ddt(V) + dC/dx S V,
-- restoring exact conservativity (Listing 1 omits the motional term).
ENTITY etransverse IS
  GENERIC (A, d, er : analog);
  PIN (a, b : electrical; c, d : mechanical1);
END ENTITY etransverse;

ARCHITECTURE energy OF etransverse IS
  VARIABLE e0, x, cap : analog;
  STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, d].tv;
      x := integ(S);
      cap := e0*er*A/(d + x);
      [a, b].i %= cap*ddt(V) - e0*er*A/((d + x)*(d + x))*S*V;
      [c, d].f %= e0*er*A*V*V/(2.0*(d + x)*(d + x));
  END RELATION;
END ARCHITECTURE energy;
)";
}

std::string parallel_electrostatic() {
  return R"(
-- Parallel (sliding plate) electrostatic transducer (Fig. 2b):
-- C(x) = e0*er*h*(l - x)/d; the delivered force -e0*er*h*V^2/(2 d) is
-- x-independent (Table 3 row b).
ENTITY eparallel IS
  GENERIC (h, l, d, er : analog);
  PIN (a, b : electrical; c, f : mechanical1);
END ENTITY eparallel;

ARCHITECTURE energy OF eparallel IS
  VARIABLE e0, x, cap : analog;
  STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, f].tv;
      x := integ(S);
      cap := e0*er*h*(l - x)/d;
      [a, b].i %= cap*ddt(V) - e0*er*h/d*S*V;
      [c, f].f %= e0*er*h*V*V/(2.0*d);
  END RELATION;
END ARCHITECTURE energy;
)";
}

std::string electromagnetic() {
  return R"(
-- Electromagnetic reluctance transducer (Fig. 2c):
-- L(x) = mu0*A*N^2/(2 (d+x)); v = ddt(L(x) i) (Table 3 row c). The
-- electrical port is effort-contributed so the branch current is readable.
ENTITY emagnetic IS
  GENERIC (A, d, N : analog);
  PIN (a, b : electrical; c, f : mechanical1);
END ENTITY emagnetic;

ARCHITECTURE energy OF emagnetic IS
  VARIABLE mu0, x, ind : analog;
  STATE I, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      mu0 := 1.2566370614e-6;
    PROCEDURAL FOR ac, transient =>
      I := [a, b].i;
      S := [c, f].tv;
      x := integ(S);
      ind := mu0*A*N*N/(2.0*(d + x));
      [a, b].v %= ddt(ind*I);
      [c, f].f %= mu0*A*N*N*I*I/(4.0*(d + x)*(d + x));
  END RELATION;
END ARCHITECTURE energy;
)";
}

std::string electrodynamic() {
  return R"(
-- Electrodynamic voice-coil transducer (Fig. 2d): back-EMF T*u plus the
-- coil self-inductance; delivered Lorentz force +T*i with T = 2 pi N r B
-- (Table 3 row d), i.e. absorbed mechanical flow -T*i.
ENTITY edynamic IS
  GENERIC (N, r, B : analog);
  PIN (a, b : electrical; c, f : mechanical1);
END ENTITY edynamic;

ARCHITECTURE energy OF edynamic IS
  VARIABLE mu0, pi, T, ind : analog;
  STATE I, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      mu0 := 1.2566370614e-6;
      pi := 3.14159265358979;
    PROCEDURAL FOR ac, transient =>
      I := [a, b].i;
      S := [c, f].tv;
      T := 2.0*pi*N*r*B;
      ind := mu0*N*N*r/2.0;
      [a, b].v %= ddt(ind*I) + T*S;
      [c, f].f %= -T*I;
  END RELATION;
END ARCHITECTURE energy;
)";
}

}  // namespace usys::hdl::stdlib
